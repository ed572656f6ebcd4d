package browser

import (
	"fmt"
	"strings"

	"webracer/internal/dom"
	"webracer/internal/html"
	"webracer/internal/js"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// installBindings populates the window's global scope with the browser API:
// window, document, timers, XMLHttpRequest, Image, console, alert. The
// window and document objects are made now; the rest of windowBuiltins is
// reserved and built on first touch.
func (w *Window) installBindings() {
	it := w.It

	winO := it.NewObject("Window")
	winO.Host = &winHost{w: w}
	w.winObj = js.ObjectVal(winO)
	it.GlobalThis = w.winObj

	docO := it.NewObject("HTMLDocument")
	docO.Host = &docHost{w: w}
	w.docObj = js.ObjectVal(docO)

	it.Reserve(windowBuiltins, w)
	// The origin's storage object draws its serial here, when the top
	// window is made, whether or not a script ever reads it.
	w.storageValue()
}

// windowBuiltins are the browser-level globals of every window, in the
// order their serials are drawn.
var windowBuiltins = js.NewBuiltins(
	windowValue("window", func(w *Window) js.Value { return w.winObj }),
	windowValue("self", func(w *Window) js.Value { return w.winObj }),
	windowValue("document", func(w *Window) js.Value { return w.docObj }),
	windowNative("setTimeout", (*Window).nativeSetTimeout),
	windowNative("setInterval", (*Window).nativeSetInterval),
	windowNative("clearTimeout", (*Window).nativeClearTimer),
	windowNative("clearInterval", (*Window).nativeClearTimer),
	windowNative("alert", func(w *Window, _ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
		w.b.Console = append(w.b.Console, "alert: "+joinArgs(args))
		return js.Undefined, nil
	}),
	windowNative("XMLHttpRequest", (*Window).nativeXHR),
	windowNative("Image", (*Window).nativeImage),
	js.Builtin{Name: "console", Serials: 1 + len(consoleLevels), Build: func(it *js.Interp, host any) js.Value {
		w := host.(*Window)
		console := it.NewObject("Console")
		for _, level := range consoleLevels {
			console.SetProp(level, it.NativeFunc(level, func(_ *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
				w.b.Console = append(w.b.Console, level+": "+joinArgs(args))
				return js.Undefined, nil
			}))
		}
		return js.ObjectVal(console)
	}},
	js.Builtin{Name: "location", Serials: 1, Build: func(it *js.Interp, host any) js.Value {
		loc := it.NewObject("Location")
		loc.SetProp("href", js.Str(host.(*Window).URL))
		loc.SetProp("protocol", js.Str("https:"))
		loc.SetProp("host", js.Str("example.test"))
		return js.ObjectVal(loc)
	}},
	js.Builtin{Name: "navigator", Serials: 1, Build: func(it *js.Interp, _ any) js.Value {
		nav := it.NewObject("Navigator")
		nav.SetProp("userAgent", js.Str("WebRacer-Sim/1.0"))
		return js.ObjectVal(nav)
	}},
	windowValue("localStorage", (*Window).storageValue),
	windowValue("sessionStorage", (*Window).storageValue),
)

var consoleLevels = []string{"log", "warn", "error", "info", "debug"}

// windowValue is a browser global that is an existing value of the window.
func windowValue(name string, v func(*Window) js.Value) js.Builtin {
	return js.Builtin{Name: name, Build: func(_ *js.Interp, host any) js.Value { return v(host.(*Window)) }}
}

// windowNative is a browser global function bound to its window.
func windowNative(name string, fn func(w *Window, it *js.Interp, this js.Value, args []js.Value) (js.Value, error)) js.Builtin {
	return js.Builtin{Name: name, Serials: 1, Build: func(it *js.Interp, host any) js.Value {
		w := host.(*Window)
		return it.NativeFunc(name, func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			return fn(w, it, this, args)
		})
	}}
}

// storageValue returns the origin-wide storage object (created on the top
// window so every frame shares one store and one location space).
func (w *Window) storageValue() js.Value {
	top := topOf(w)
	if top.storage.Kind == js.KindUndefined {
		so := top.It.NewObject("Storage")
		so.Host = &storageHost{w: top, data: map[string]string{}, serial: so.Serial}
		top.storage = js.ObjectVal(so)
	}
	return top.storage
}

func joinArgs(args []js.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.ToString()
	}
	return strings.Join(parts, " ")
}

// winHost resolves dynamic window properties: the on-event handler slots of
// the window target, frame relationships, and aliases.
type winHost struct{ w *Window }

func (h *winHost) HostGet(it *js.Interp, name string) (js.Value, bool, error) {
	w := h.w
	switch name {
	case "window", "self":
		return w.winObj, true, nil
	case "document":
		return w.docObj, true, nil
	case "parent":
		if w.parent != nil {
			return w.parent.winObj, true, nil
		}
		return w.winObj, true, nil
	case "top":
		return topOf(w).winObj, true, nil
	case "frameElement":
		if w.parent != nil && w.frameElem != nil {
			return w.parent.NodeValue(w.frameElem), true, nil
		}
		return js.Null, true, nil
	case "setTimeout":
		return it.NativeFunc(name, w.nativeSetTimeout), true, nil
	case "setInterval":
		return it.NativeFunc(name, w.nativeSetInterval), true, nil
	case "clearTimeout", "clearInterval":
		return it.NativeFunc(name, w.nativeClearTimer), true, nil
	case "addEventListener":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			w.addEventListener(w.winNode, args)
			return js.Undefined, nil
		}), true, nil
	case "removeEventListener":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			w.removeEventListener(w.winNode, args)
			return js.Undefined, nil
		}), true, nil
	case "location":
		v, _ := it.LookupGlobal("location")
		return v, true, nil
	case "localStorage", "sessionStorage":
		// Storage is per origin, not per frame: all windows of the
		// session share the top window's store (and therefore its
		// logical locations — cross-frame storage races are real).
		return w.storageValue(), true, nil
	}
	if strings.HasPrefix(name, "on") && len(name) > 2 {
		event := name[2:]
		w.b.Access(mem.Read, mem.HandlerLoc(w.winNode.Serial, event, 0), mem.CtxHandlerFire,
			"window."+name)
		for _, l := range w.winNode.Listeners(event) {
			if l.HandlerID == 0 {
				if v, ok := l.Fn.(js.Value); ok {
					return v, true, nil
				}
			}
		}
		return js.Null, true, nil
	}
	// Fall through: window.foo aliases the global variable foo.
	if v, ok := it.LookupGlobal(name); ok {
		w.b.Access(mem.Read, mem.VarLoc(it.GlobalEnv().GlobalSerial, name), mem.CtxPlain, "window."+name)
		return v, true, nil
	}
	return js.Undefined, false, nil
}

func (h *winHost) HostSet(it *js.Interp, name string, v js.Value) (bool, error) {
	w := h.w
	if strings.HasPrefix(name, "on") && len(name) > 2 {
		event := name[2:]
		w.b.Access(mem.Write, mem.HandlerLoc(w.winNode.Serial, event, 0), mem.CtxHandlerAdd,
			"window.on"+event+"=")
		var fn any
		if v.IsCallable() {
			fn = v
		} else if v.Kind == js.KindString {
			fn = v.Str
		}
		w.winNode.AddListener(event, &dom.Listener{HandlerID: 0, Fn: fn})
		return true, nil
	}
	// window.foo = x defines the global foo.
	w.b.Access(mem.Write, mem.VarLoc(it.GlobalEnv().GlobalSerial, name), mem.CtxPlain, "window."+name+"=")
	it.DefineGlobal(name, v)
	return true, nil
}

// storageHost implements localStorage: each key is a logical location, so
// unordered operations touching one key race — the same shared-resource
// story as document.cookie (which §8's comparison with Zheng et al. calls
// out), but keyed per entry.
type storageHost struct {
	w      *Window
	data   map[string]string
	serial uint64
}

func (h *storageHost) HostGet(it *js.Interp, name string) (js.Value, bool, error) {
	b := h.w.b
	switch name {
	case "getItem":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			key := args[0].ToString()
			b.Access(mem.Read, mem.VarLoc(h.serial, key), mem.CtxPlain, "localStorage.getItem("+key+")")
			if v, ok := h.data[key]; ok {
				return js.Str(v), nil
			}
			return js.Null, nil
		}), true, nil
	case "setItem":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) < 2 {
				return js.Undefined, nil
			}
			key := args[0].ToString()
			b.Access(mem.Write, mem.VarLoc(h.serial, key), mem.CtxPlain, "localStorage.setItem("+key+")")
			h.data[key] = args[1].ToString()
			return js.Undefined, nil
		}), true, nil
	case "removeItem":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Undefined, nil
			}
			key := args[0].ToString()
			b.Access(mem.Write, mem.VarLoc(h.serial, key), mem.CtxPlain, "localStorage.removeItem("+key+")")
			delete(h.data, key)
			return js.Undefined, nil
		}), true, nil
	case "length":
		return js.Number(float64(len(h.data))), true, nil
	case "clear":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			for key := range h.data {
				b.Access(mem.Write, mem.VarLoc(h.serial, key), mem.CtxPlain, "localStorage.clear")
			}
			h.data = map[string]string{}
			return js.Undefined, nil
		}), true, nil
	}
	return js.Undefined, false, nil
}

func (h *storageHost) HostSet(it *js.Interp, name string, v js.Value) (bool, error) {
	h.w.b.Access(mem.Write, mem.VarLoc(h.serial, name), mem.CtxPlain, "localStorage."+name+"=")
	h.data[name] = v.ToString()
	return true, nil
}

// docHost resolves document properties and methods: element lookup (the
// §4.2 reads), node creation, collections, and document-level events.
type docHost struct{ w *Window }

func (h *docHost) HostGet(it *js.Interp, name string) (js.Value, bool, error) {
	w, b := h.w, h.w.b
	switch name {
	case "getElementById":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			id := args[0].ToString()
			// The logical HTML-element read of §4.2: performed
			// whether or not the element exists yet — a failed
			// lookup is half of an HTML race (Fig. 3). The miss
			// marker in the description feeds the harm oracle.
			found := w.Doc.GetElementByID(id)
			desc := fmt.Sprintf("getElementById(%q)", id)
			if found == nil {
				desc += " -> null"
			}
			b.Access(mem.Read, mem.ElemIDLoc(w.Doc.Root.Serial, id), mem.CtxElemLookup, desc)
			return w.NodeValue(found), nil
		}), true, nil
	case "getElementsByTagName":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.ObjectVal(it.NewArray()), nil
			}
			return w.nodeCollection(w.Doc.ElementsByTag(args[0].ToString()), "getElementsByTagName"), nil
		}), true, nil
	case "getElementsByName":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.ObjectVal(it.NewArray()), nil
			}
			return w.nodeCollection(w.Doc.ElementsByName(args[0].ToString()), "getElementsByName"), nil
		}), true, nil
	case "querySelector", "querySelectorAll":
		all := name == "querySelectorAll"
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				if all {
					return js.ObjectVal(it.NewArray()), nil
				}
				return js.Null, nil
			}
			src := args[0].ToString()
			sel, ok := dom.ParseSelector(src)
			if !ok {
				return js.Undefined, jsTypeError("unsupported selector " + src)
			}
			matches := sel.Select(w.Doc.Root)
			if all {
				return w.nodeCollection(matches, "querySelectorAll"), nil
			}
			if len(matches) == 0 {
				// An id-only selector misses like getElementById: the
				// failed read still touches the id-keyed location.
				if id, isID := idOnlySelector(src); isID {
					b.Access(mem.Read, mem.ElemIDLoc(w.Doc.Root.Serial, id),
						mem.CtxElemLookup, "querySelector(#"+id+") -> null")
				}
				return js.Null, nil
			}
			b.Access(mem.Read, w.elemLoc(matches[0]), mem.CtxElemLookup, "querySelector")
			return w.NodeValue(matches[0]), nil
		}), true, nil
	case "createElement":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			n := w.Doc.NewNode(args[0].ToString())
			b.createOps[n] = b.curOp
			return w.NodeValue(n), nil
		}), true, nil
	case "createTextNode":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			txt := ""
			if len(args) > 0 {
				txt = args[0].ToString()
			}
			n := w.Doc.NewText(txt)
			b.createOps[n] = b.curOp
			return w.NodeValue(n), nil
		}), true, nil
	case "write", "writeln":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			// document.write appends to the body in this simulation
			// (mid-parse insertion-point splicing is out of scope).
			if len(args) > 0 {
				w.setDocWrite(args[0].ToString())
			}
			return js.Undefined, nil
		}), true, nil
	case "addEventListener":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			w.addEventListener(w.Doc.Root, args)
			return js.Undefined, nil
		}), true, nil
	case "removeEventListener":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			w.removeEventListener(w.Doc.Root, args)
			return js.Undefined, nil
		}), true, nil
	case "body":
		body := w.Doc.Body()
		b.Access(mem.Read, w.elemLoc(body), mem.CtxElemLookup, "document.body")
		if body == w.Doc.Root && len(w.Doc.ElementsByTag("body")) == 0 {
			// No <body> parsed yet: scripts see null, like a real
			// browser before the body tag arrives.
			if !w.parseDone {
				return js.Null, true, nil
			}
		}
		return w.NodeValue(body), true, nil
	case "documentElement":
		return w.NodeValue(w.Doc.Root), true, nil
	case "forms", "images", "links", "anchors", "scripts":
		return w.nodeCollection(w.Doc.Collection(name), "document."+name), true, nil
	case "readyState":
		switch {
		case w.loadFired:
			return js.Str("complete"), true, nil
		case w.dclDone:
			return js.Str("interactive"), true, nil
		default:
			return js.Str("loading"), true, nil
		}
	case "URL":
		return js.Str(w.URL), true, nil
	case "cookie":
		b.Access(mem.Read, mem.VarLoc(w.Doc.Root.Serial, "cookie"), mem.CtxPlain, "document.cookie")
		return js.Str(w.Doc.Root.Attrs["__cookie__"]), true, nil
	case "title":
		return js.Str(w.docTitle()), true, nil
	}
	if strings.HasPrefix(name, "on") && len(name) > 2 {
		event := name[2:]
		b.Access(mem.Read, mem.HandlerLoc(w.Doc.Root.Serial, event, 0), mem.CtxHandlerFire,
			"document."+name)
		return js.Null, true, nil
	}
	return js.Undefined, false, nil
}

func (h *docHost) HostSet(it *js.Interp, name string, v js.Value) (bool, error) {
	w, b := h.w, h.w.b
	switch name {
	case "cookie":
		b.Access(mem.Write, mem.VarLoc(w.Doc.Root.Serial, "cookie"), mem.CtxPlain, "document.cookie=")
		w.Doc.Root.Attrs["__cookie__"] = v.ToString()
		return true, nil
	case "title":
		return true, nil
	}
	if strings.HasPrefix(name, "on") && len(name) > 2 {
		event := name[2:]
		b.Access(mem.Write, mem.HandlerLoc(w.Doc.Root.Serial, event, 0), mem.CtxHandlerAdd,
			"document.on"+event+"=")
		var fn any
		if v.IsCallable() {
			fn = v
		} else if v.Kind == js.KindString {
			fn = v.Str
		}
		w.Doc.Root.AddListener(event, &dom.Listener{HandlerID: 0, Fn: fn})
		return true, nil
	}
	return false, nil
}

func (w *Window) nodeCollection(nodes []*dom.Node, what string) js.Value {
	arr := w.It.NewArray()
	for _, n := range nodes {
		w.b.Access(mem.Read, w.elemLoc(n), mem.CtxElemLookup, what)
		arr.Elems = append(arr.Elems, w.NodeValue(n))
	}
	return js.ObjectVal(arr)
}

// idOnlySelector recognizes "#someid" selectors so failed querySelector
// lookups hit the same logical location as getElementById.
func idOnlySelector(src string) (string, bool) {
	src = strings.TrimSpace(src)
	if len(src) > 1 && src[0] == '#' && !strings.ContainsAny(src[1:], "#. \t") {
		return src[1:], true
	}
	return "", false
}

func (w *Window) docTitle() string {
	for _, t := range w.Doc.ElementsByTag("title") {
		var sb strings.Builder
		t.Walk(func(m *dom.Node) {
			if m.Tag == "#text" {
				sb.WriteString(m.Text)
			}
		})
		return sb.String()
	}
	return ""
}

// setDocWrite implements document.write by appending parsed markup to the
// body (mid-parse insertion-point splicing is out of scope; DESIGN.md).
func (w *Window) setDocWrite(markup string) {
	target := w.Doc.Body()
	for _, frag := range html.ParseFragment(w.Doc, markup) {
		w.insertChild(target, frag, nil)
	}
}

// ---- timers (§3.3 rules 16 & 17) ----

func (w *Window) nativeSetTimeout(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
	return w.installTimer(args, false)
}

func (w *Window) nativeSetInterval(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
	return w.installTimer(args, true)
}

func (w *Window) installTimer(args []js.Value, interval bool) (js.Value, error) {
	if len(args) == 0 {
		return js.Number(0), nil
	}
	delay := 0.0
	if len(args) > 1 {
		delay = args[1].ToNumber()
	}
	if delay < 0 || delay != delay {
		delay = 0
	}
	b := w.b
	w.timerSeq++
	id := w.timerSeq
	rec := &timerRec{interval: interval, every: delay}
	if args[0].IsCallable() {
		rec.fn = args[0]
	} else {
		rec.src = args[0].ToString()
	}
	kind := op.KindTimeout
	label := fmt.Sprintf("cb setTimeout(%.0fms)", delay)
	if interval {
		kind = op.KindInterval
		label = fmt.Sprintf("cb0 setInterval(%.0fms)", delay)
	}
	b.mTimers.Inc()
	cb := b.newOp(kind, label)
	b.HB.Edge(b.curOp, cb) // HB rule 16 (and rule 17's A ⇝ cb₀)
	rec.lastCb = cb
	if tr := b.cfg.Trace; tr != nil {
		tr.AsyncBegin("timer", label, timerSpanID(cb), b.clock, nil)
		rec.armed = true
	}
	if b.cfg.InstrumentTimerClears {
		// §7 extension: the timer slot is a logical location.
		rec.slot = b.Serials.Next()
		b.Access(mem.Write, mem.HandlerLoc(w.winNode.Serial, "timer", rec.slot),
			mem.CtxHandlerAdd, "install "+label)
	}
	w.timers[id] = rec
	rec.task = b.schedule(delay, func() { w.fireTimer(id, rec, cb) })
	return js.Number(float64(id)), nil
}

func (w *Window) fireTimer(id int, rec *timerRec, cb op.ID) {
	b := w.b
	if rec.cleared {
		return
	}
	// The record stays registered even after firing so that a late
	// clearTimeout still performs its slot write — that write is exactly
	// the racing access of the §7 timer-clear extension.
	rec.fired = true
	if tr := b.cfg.Trace; tr != nil && rec.armed {
		tr.AsyncEnd("timer", b.Ops.Get(cb).Label, timerSpanID(cb), b.clock, nil)
		rec.armed = false
	}
	b.withOp(cb, func() {
		if b.cfg.InstrumentTimerClears {
			b.Access(mem.Read, mem.HandlerLoc(w.winNode.Serial, "timer", rec.slot),
				mem.CtxHandlerFire, "timer fires")
		}
		w.callTimerBody(rec)
	})
	if rec.interval && !rec.cleared {
		rec.ticks++
		if rec.ticks >= b.cfg.MaxIntervalTicks {
			return
		}
		next := b.newOp(op.KindInterval, fmt.Sprintf("cb%d setInterval(%.0fms)", rec.ticks, rec.every))
		b.HB.Edge(cb, next) // HB rule 17: cbᵢ ⇝ cbᵢ₊₁
		rec.lastCb = next
		if tr := b.cfg.Trace; tr != nil {
			tr.AsyncBegin("timer", b.Ops.Get(next).Label, timerSpanID(next), b.clock, nil)
			rec.armed = true
		}
		// Later ticks are weak tasks: once everything else has
		// quiesced, a never-cleared interval (Gomez-style polling)
		// stops keeping the session alive.
		weak := rec.ticks >= 3
		rec.task = b.scheduleTask(rec.every, weak, func() { w.fireTimer(id, rec, next) })
	}
}

func (w *Window) callTimerBody(rec *timerRec) {
	if rec.fn.IsCallable() {
		if _, err := w.It.CallFunction(rec.fn, js.Undefined, nil); err != nil {
			w.scriptError("timer callback", err)
		}
		return
	}
	if rec.src != "" {
		w.runScript(rec.src, "timer string")
	}
}

// nativeClearTimer implements clearTimeout/clearInterval. WebRacer did not
// instrument these (§7: clears may race with callback execution); neither
// do we, faithfully.
func (w *Window) nativeClearTimer(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
	if len(args) == 0 {
		return js.Undefined, nil
	}
	id := int(args[0].ToNumber())
	if rec, ok := w.timers[id]; ok {
		if w.b.cfg.InstrumentTimerClears {
			w.b.Access(mem.Write, mem.HandlerLoc(w.winNode.Serial, "timer", rec.slot),
				mem.CtxHandlerRemove, "clearTimer")
		}
		rec.cleared = true
		cancel(rec.task)
		if tr := w.b.cfg.Trace; tr != nil && rec.armed {
			tr.AsyncEnd("timer", w.b.Ops.Get(rec.lastCb).Label, timerSpanID(rec.lastCb),
				w.b.clock, map[string]any{"cancelled": true})
			rec.armed = false
		}
	}
	return js.Undefined, nil
}

// ---- XMLHttpRequest (§3.3 rule 10) ----

type xhrHost struct {
	w      *Window
	node   *dom.Node // hidden dispatch target for readystatechange/load/error/...
	obj    *js.Object
	method string
	url    string
	sent   bool
	// done marks the request settled (response arrived, timed out, or
	// aborted); later settlement attempts are ignored.
	done     bool
	aborted  bool
	timedOut bool
	timeout  float64
	state    int
	status   int
	body     string
	sendErr  error
}

// spanID names the request's async trace span by its hidden target node,
// which is unique per XHR instance.
func (h *xhrHost) spanID() string { return fmt.Sprintf("x%d", h.node.Serial) }

// xhrHandlerProps maps on-event properties to their event names.
var xhrHandlerProps = map[string]string{
	"onreadystatechange": "readystatechange",
	"onload":             "load",
	"onerror":            "error",
	"ontimeout":          "timeout",
	"onabort":            "abort",
}

func (w *Window) nativeXHR(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
	o := it.NewObject("XMLHttpRequest")
	h := &xhrHost{w: w, obj: o, node: w.Doc.NewNode("#xhr")}
	w.b.createOps[h.node] = w.b.curOp
	o.Host = h
	return js.ObjectVal(o), nil
}

func (h *xhrHost) HostGet(it *js.Interp, name string) (js.Value, bool, error) {
	w, b := h.w, h.w.b
	switch name {
	case "open":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if len(args) >= 2 {
				h.method = args[0].ToString()
				h.url = args[1].ToString()
				h.state = 1
			}
			return js.Undefined, nil
		}), true, nil
	case "send":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if h.sent || h.url == "" {
				return js.Undefined, nil
			}
			h.sent = true
			b.mXHRs.Inc()
			sendOp := b.curOp
			resp := b.fetch(h.url)
			if tr := b.cfg.Trace; tr != nil {
				tr.AsyncBegin("xhr", h.method+" "+h.url, h.spanID(), b.clock, nil)
			}
			if h.timeout > 0 && h.timeout < resp.Latency {
				// The deadline beats the response: the request settles as
				// a timeout and the (still-scheduled) arrival is ignored.
				b.schedule(h.timeout, func() { h.settle(sendOp, "timeout", 0, "", nil) })
			}
			b.schedule(resp.Latency, func() {
				// HTTP completion — any status, including 404/500 — fires
				// load; a transport error (status 0) fires error instead.
				event := "load"
				if resp.Status == 0 {
					event = "error"
				}
				h.settle(sendOp, event, resp.Status, resp.Body, resp.Err)
			})
			return js.Undefined, nil
		}), true, nil
	case "abort":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			if !h.sent || h.done {
				return js.Undefined, nil
			}
			// abort settles the request synchronously inside the calling
			// script: the field writes happen under the current operation,
			// then readystatechange and abort dispatch inline (the current
			// op splits around them, Appendix A).
			h.done, h.aborted = true, true
			if tr := b.cfg.Trace; tr != nil {
				tr.AsyncEnd("xhr", h.method+" "+h.url, h.spanID(), b.clock,
					map[string]any{"event": "abort"})
			}
			h.state, h.status, h.body = 4, 0, ""
			h.writeFields("xhr abort")
			disp := w.InlineDispatch(h.node, "readystatechange", DispatchOpts{Detail: "abort"})
			w.InlineDispatch(h.node, "abort", DispatchOpts{ExtraPreds: []op.ID{disp.Last}})
			return js.Undefined, nil
		}), true, nil
	case "setRequestHeader":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			return js.Undefined, nil
		}), true, nil
	case "timeout":
		return js.Number(h.timeout), true, nil
	case "readyState":
		b.Access(mem.Read, mem.VarLoc(h.obj.Serial, "readyState"), mem.CtxPlain, "xhr readyState")
		return js.Number(float64(h.state)), true, nil
	case "status":
		b.Access(mem.Read, mem.VarLoc(h.obj.Serial, "status"), mem.CtxPlain, "xhr status")
		return js.Number(float64(h.status)), true, nil
	case "responseText":
		b.Access(mem.Read, mem.VarLoc(h.obj.Serial, "responseText"), mem.CtxPlain, "xhr responseText")
		return js.Str(h.body), true, nil
	case "onreadystatechange", "onload", "onerror", "ontimeout", "onabort":
		b.Access(mem.Read, mem.HandlerLoc(h.node.Serial, xhrHandlerProps[name], 0),
			mem.CtxHandlerFire, "xhr handler")
		return js.Null, true, nil
	case "addEventListener":
		return it.NativeFunc(name, func(it *js.Interp, _ js.Value, args []js.Value) (js.Value, error) {
			w.addEventListener(h.node, args)
			return js.Undefined, nil
		}), true, nil
	}
	return js.Undefined, false, nil
}

func (h *xhrHost) HostSet(it *js.Interp, name string, v js.Value) (bool, error) {
	if name == "timeout" {
		h.timeout = v.ToNumber()
		return true, nil
	}
	if event, ok := xhrHandlerProps[name]; ok {
		h.w.b.Access(mem.Write, mem.HandlerLoc(h.node.Serial, event, 0),
			mem.CtxHandlerAdd, "xhr."+name+"=")
		var fn any
		if v.IsCallable() {
			fn = v
		}
		h.node.AddListener(event, &dom.Listener{HandlerID: 0, Fn: fn})
		return true, nil
	}
	return false, nil
}

// writeFields records the §4 writes of settling an XHR (readyState,
// status, responseText) under the current operation.
func (h *xhrHost) writeFields(why string) {
	b := h.w.b
	b.Access(mem.Write, mem.VarLoc(h.obj.Serial, "readyState"), mem.CtxPlain, why+" readyState")
	b.Access(mem.Write, mem.VarLoc(h.obj.Serial, "status"), mem.CtxPlain, why+" status")
	b.Access(mem.Write, mem.VarLoc(h.obj.Serial, "responseText"), mem.CtxPlain, why+" responseText")
}

// settle completes a request asynchronously: a network operation (with
// send ⇝ it, HB rule 10) writes the response fields, readystatechange
// dispatches, then the settlement event (load / error / timeout) follows.
// A request settles at most once — an arrival after a timeout or abort is
// dropped.
func (h *xhrHost) settle(sendOp op.ID, event string, status int, body string, err error) {
	if h.done {
		return
	}
	h.done = true
	h.timedOut = event == "timeout"
	w, b := h.w, h.w.b
	if tr := b.cfg.Trace; tr != nil {
		tr.AsyncEnd("xhr", h.method+" "+h.url, h.spanID(), b.clock,
			map[string]any{"event": event, "status": status})
	}
	netOp := b.newOp(op.KindNetwork, "xhr "+event+" "+h.url)
	b.HB.Edge(sendOp, netOp)
	b.withOp(netOp, func() {
		h.state, h.status, h.body, h.sendErr = 4, status, body, err
		h.writeFields("xhr " + event)
	})
	disp := w.Dispatch(h.node, "readystatechange",
		DispatchOpts{ExtraPreds: []op.ID{sendOp, netOp}}) // HB rule 10
	w.Dispatch(h.node, event, DispatchOpts{ExtraPreds: []op.ID{netOp, disp.Last}})
}

// nativeImage implements `new Image()`: a detached <img> whose src
// assignment starts a (non-blocking) load — the Gomez monitoring pattern
// uses these.
func (w *Window) nativeImage(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
	n := w.Doc.NewNode("img")
	w.b.createOps[n] = w.b.curOp
	return w.NodeValue(n), nil
}
