package browser

import (
	"fmt"
	"sort"
	"strings"

	"webracer/internal/dom"
	"webracer/internal/html"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// Window is one browsing context: the top-level page or an inline frame.
// Each window has its own document and its own script global scope (with
// the Fig. 1 shared-location option, see Config.SharedFrameGlobals).
type Window struct {
	b         *Browser
	URL       string
	Doc       *dom.Document
	It        *js.Interp
	parent    *Window
	frameElem *dom.Node // the <iframe> element in the parent document

	// winNode is the hidden target node for window-level events (load).
	winNode *dom.Node

	parser       *html.Parser
	parseDone    bool
	chainOp      op.ID // rule 1 cursor: last op in the static chain
	finalParseOp op.ID

	blockers      int
	loadEdges     []op.ID // ld(E).Last ops feeding ld(W)'s anchor (rule 15)
	dclLast       op.ID
	dclDone       bool
	loadFired     bool
	loadScheduled bool
	// LoadDisp is the window load dispatch (valid once loadFired).
	LoadDisp DispatchResult

	deferQ   []*deferJob
	deferIdx int

	disp     map[dispKey]*dispState
	timerSeq int
	timers   map[int]*timerRec

	elemObjs map[*dom.Node]js.Value
	winObj   js.Value
	docObj   js.Value
	storage  js.Value
}

type deferJob struct {
	node    *dom.Node
	parseOp op.ID
	body    string
	arrived bool
	failed  bool
	ldLast  op.ID
	done    bool
}

type dispKey struct {
	target *dom.Node
	event  string
}

type dispState struct {
	count int
	last  op.ID
}

type timerRec struct {
	task     *task
	interval bool
	cleared  bool
	lastCb   op.ID
	fn       js.Value
	src      string
	every    float64
	ticks    int
	// slot is the timer's logical location identity when the
	// InstrumentTimerClears extension is enabled.
	slot uint64
	// fired marks one-shot timers that already ran.
	fired bool
	// armed tracks an open async trace span for the pending callback
	// (only maintained when tracing is enabled).
	armed bool
}

// LoadPage starts loading url as the top-level page and runs the event loop
// to quiescence. It returns the top window.
func (b *Browser) LoadPage(url string) *Window {
	w := b.newWindow(url, nil, nil)
	resp := b.fetch(url)
	if resp.Err != nil {
		b.pageError("fetch "+url, resp.Err)
		return w
	}
	if !resp.OK() {
		b.pageError("fetch "+url, fmt.Errorf("status %d for %q", resp.Status, url))
		return w
	}
	w.chainOp = b.initOp
	b.schedule(resp.Latency, func() { w.beginParse(resp.Body) })
	b.Run()
	return w
}

func (b *Browser) newWindow(url string, parent *Window, frameElem *dom.Node) *Window {
	w := &Window{
		b:         b,
		URL:       url,
		parent:    parent,
		frameElem: frameElem,
		Doc:       dom.NewDocument(url, b.Serials),
		disp:      map[dispKey]*dispState{},
		timers:    map[int]*timerRec{},
		elemObjs:  map[*dom.Node]js.Value{},
	}
	w.winNode = w.Doc.NewNode("#window")
	var hooks js.Hooks = b
	if b.cfg.NoInstrument {
		hooks = nil // interpreter fast path: no access callbacks at all
	}
	w.It = js.New(b.Serials, hooks)
	w.It.Programs = b.cfg.Programs
	if parent != nil && b.cfg.SharedFrameGlobals {
		// Frame globals share the top window's logical location space,
		// reproducing the paper's Fig. 1 variable race between frames.
		w.It.GlobalEnv().GlobalSerial = topOf(parent).It.GlobalEnv().GlobalSerial
	}
	w.It.Rand = b.random
	w.It.Now = func() float64 { return b.clock }
	w.installBindings()
	if b.top == nil {
		b.top = w
	}
	b.windows = append(b.windows, w)
	return w
}

func topOf(w *Window) *Window {
	for w.parent != nil {
		w = w.parent
	}
	return w
}

// Browser returns the owning browser.
func (w *Window) Browser() *Browser { return w.b }

// Loaded reports whether the window's load event has fired.
func (w *Window) Loaded() bool { return w.loadFired }

// DispatchCount reports how many times event has been dispatched on target
// (the single-dispatch filter and tests use it).
func (w *Window) DispatchCount(target *dom.Node, event string) int {
	if ds, ok := w.disp[dispKey{target, event}]; ok {
		return ds.count
	}
	return 0
}

// WindowNode exposes the hidden node targeted by window-level events.
func (w *Window) WindowNode() *dom.Node { return w.winNode }

// ---- parsing pipeline ----

func (w *Window) beginParse(src string) {
	w.parser = html.NewParser(w.Doc, src)
	w.parseStep()
}

// parseStep consumes parser events until it has processed one element (the
// granularity of parse(E) operations), then yields to the event loop —
// partial page rendering, the enabler of most of §2's races.
func (w *Window) parseStep() {
	b := w.b
	for {
		ev := w.parser.Next()
		switch ev.Kind {
		case html.EventDone:
			w.finishParse()
			return
		case html.EventClose:
			continue
		case html.EventText:
			// Text nodes join the chain as lightweight parse ops so
			// their childNodes write has an owner.
			b.mParseText.Inc()
			pop := b.newOp(op.KindParse, "#text")
			b.HB.Edge(w.chainOp, pop) // HB rule 1a
			w.chainOp = pop
			b.withOp(pop, func() {
				b.Access(mem.Write, mem.VarLoc(ev.Parent.Serial, "childNodes"),
					mem.CtxPlain, "parse text")
			})
			continue
		case html.EventOpen:
			b.mParseElem.Inc()
			pop := b.newOp(op.KindParse, "parse "+ev.Node.String())
			b.HB.Edge(w.chainOp, pop) // HB rule 1a
			w.chainOp = pop
			b.createOps[ev.Node] = pop
			b.withOp(pop, func() { w.instrumentInsert(ev.Node, ev.Parent) })
			switch ev.Node.Tag {
			case "script":
				if w.handleParsedScript(ev.Node, pop) {
					return // parsing blocked on a synchronous script
				}
			case "iframe":
				w.handleIframe(ev.Node, pop)
			case "img":
				w.maybeLoadImage(ev.Node, pop)
			}
			b.schedule(b.cfg.ParseStepCost, w.parseStep)
			return
		}
	}
}

// instrumentInsert performs the §4 writes for inserting node (and its
// already-attached subtree) under parent: the HTML element location write,
// the parentNode/childNodes property writes, and the event-handler location
// writes for on-event content attributes. Runs under the current op.
func (w *Window) instrumentInsert(node *dom.Node, parent *dom.Node) {
	b := w.b
	b.Access(mem.Write, mem.VarLoc(parent.Serial, "childNodes"), mem.CtxPlain,
		"insert "+node.String())
	node.Walk(func(n *dom.Node) {
		if n.Tag == "#text" || n.Inserted {
			return
		}
		n.Inserted = true
		if _, ok := b.createOps[n]; !ok {
			b.createOps[n] = b.curOp
		}
		b.Access(mem.Write, w.elemLoc(n), mem.CtxElemInsert, "insert "+n.String())
		b.Access(mem.Write, mem.VarLoc(n.Serial, "parentNode"), mem.CtxPlain, "insert")
		if n.Tag == "input" || n.Tag == "textarea" {
			b.Access(mem.Write, mem.VarLoc(n.Serial, "value"), mem.CtxFormField, "initial value")
		}
		w.registerAttrHandlers(n)
	})
}

// instrumentRemove performs the §4.2 removal writes.
func (w *Window) instrumentRemove(node *dom.Node, parent *dom.Node) {
	b := w.b
	b.Access(mem.Write, mem.VarLoc(parent.Serial, "childNodes"), mem.CtxPlain,
		"remove "+node.String())
	node.Walk(func(n *dom.Node) {
		if n.Tag == "#text" {
			return
		}
		n.Inserted = false
		b.Access(mem.Write, w.elemLoc(n), mem.CtxElemRemove, "remove "+n.String())
		b.Access(mem.Write, mem.VarLoc(n.Serial, "parentNode"), mem.CtxPlain, "remove")
	})
}

// elemLoc is the HTML element location of n: id-keyed when the element has
// an id (so a failed lookup and a later insertion meet at one location),
// node-keyed otherwise.
func (w *Window) elemLoc(n *dom.Node) mem.Loc {
	if id := n.ID(); id != "" {
		return mem.ElemIDLoc(w.Doc.Root.Serial, id)
	}
	return mem.ElemLoc(n.Serial)
}

// registerAttrHandlers turns on-event content attributes into handler
// registrations: a write of (el, e, 0) per §4.3.
func (w *Window) registerAttrHandlers(n *dom.Node) {
	names := make([]string, 0, len(n.Attrs))
	for name := range n.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := n.Attrs[name]
		if !strings.HasPrefix(name, "on") || len(name) <= 2 {
			continue
		}
		event := name[2:]
		target := n
		// <body onload> and <body onunload> register on the window.
		if n.Tag == "body" && (event == "load" || event == "unload") {
			target = w.winNode
		}
		w.b.Access(mem.Write, mem.HandlerLoc(target.Serial, event, 0), mem.CtxHandlerAdd,
			fmt.Sprintf("attr on%s of %s", event, n))
		target.AddListener(event, &dom.Listener{HandlerID: 0, Fn: src})
	}
}

// ---- scripts ----

// handleParsedScript processes a just-parsed static <script>. It returns
// true when parsing must pause (synchronous external script).
func (w *Window) handleParsedScript(n *dom.Node, parseOp op.ID) bool {
	b := w.b
	src := n.Attrs["src"]
	async := hasTruthyAttr(n, "async")
	deferred := hasTruthyAttr(n, "defer")
	switch {
	case src == "":
		// Inline script: executes immediately as its own operation and
		// joins the static chain.
		exe := b.newOp(op.KindScript, "exe inline script")
		b.HB.Edge(parseOp, exe) // HB rule 2
		w.chainOp = exe         // HB rule 1b
		b.withOp(exe, func() { w.runScript(n.Text, "inline script") })
		return false
	case deferred:
		job := &deferJob{node: n, parseOp: parseOp}
		w.deferQ = append(w.deferQ, job)
		w.fetchScript(n, src, func(body string, ok bool, failLast op.ID) {
			job.arrived = true
			job.failed = !ok
			job.body = body
			job.ldLast = failLast // error handlers feed rules 5/14 like load would
			w.pumpDefers()
		})
		return false
	case async:
		w.blockers++
		w.fetchScript(n, src, func(body string, ok bool, failLast op.ID) {
			if ok {
				exe := b.newOp(op.KindScript, "exe async "+src)
				b.HB.Edge(parseOp, exe) // HB rule 2
				b.withOp(exe, func() { w.runScript(body, src) })
				ld := w.fireScriptLoad(n, exe) // HB rule 3
				w.resourceDone(ld.Last)
				return
			}
			w.resourceDone(failLast) // error handlers precede ld(W) (rule 15 analogue)
		})
		return false
	default:
		// Synchronous external script: parsing pauses until the script
		// has executed and its load event fired (HB rule 1c) — or, on
		// the error path, until its error event fired (the error
		// handlers happen-before everything parsed after the script).
		w.fetchScript(n, src, func(body string, ok bool, failLast op.ID) {
			if ok {
				exe := b.newOp(op.KindScript, "exe "+src)
				b.HB.Edge(parseOp, exe) // HB rule 2
				b.withOp(exe, func() { w.runScript(body, src) })
				ld := w.fireScriptLoad(n, exe) // HB rules 3, 1c
				w.chainOp = ld.Last            // HB rule 1c
			} else if failLast != op.None {
				w.chainOp = failLast // rule 1c, error-path variant
			}
			b.schedule(b.cfg.ParseStepCost, w.parseStep)
		})
		return true
	}
}

func hasTruthyAttr(n *dom.Node, name string) bool {
	v, ok := n.Attrs[name]
	return ok && v != "false"
}

// fetchScript fetches a script resource. On success done runs with the body
// and failLast == op.None; on failure (transport error or HTTP error
// status) the element's error event is dispatched first — the §4.3
// handler-location read that makes "handler attached only after the load
// started" an observable race — and done runs with ok == false and
// failLast the dispatch's Last op, so callers can order what follows the
// error path (resumed parsing, window-load accounting) after the error
// handlers, mirroring what rules 1c/15 do for load.
func (w *Window) fetchScript(n *dom.Node, src string, done func(body string, ok bool, failLast op.ID)) {
	resp := w.b.fetch(src)
	w.b.schedule(resp.Latency, func() {
		if !resp.OK() {
			w.b.pageError("fetch "+src, respError(src, resp))
			disp := w.Dispatch(n, "error", DispatchOpts{Detail: fetchFailDetail(resp)})
			done("", false, disp.Last)
			return
		}
		done(resp.Body, true, op.None)
	})
}

// respError normalizes a failed response to an error value.
func respError(url string, resp loader.Response) error {
	if resp.Err != nil {
		return resp.Err
	}
	return fmt.Errorf("status %d for %q", resp.Status, url)
}

// fetchFailDetail labels an error dispatch with what failed.
func fetchFailDetail(resp loader.Response) string {
	if resp.Err != nil {
		return "network error"
	}
	return fmt.Sprintf("status %d", resp.Status)
}

// runScript executes script source under the current operation, recording
// crashes as hidden page errors (§2.3).
func (w *Window) runScript(src, desc string) {
	if err := w.It.Run(src, desc); err != nil {
		w.scriptError(desc, err)
	}
}

// fireScriptLoad dispatches the load event of a script element.
// exe ⇝ ld(E) is HB rule 3.
func (w *Window) fireScriptLoad(n *dom.Node, exe op.ID) DispatchResult {
	return w.Dispatch(n, "load", DispatchOpts{ExtraPreds: []op.ID{exe}})
}

// pumpDefers executes arrived deferred scripts in document order once
// static parsing is finished (HB rules 4, 5, 14).
func (w *Window) pumpDefers() {
	b := w.b
	if !w.parseDone {
		return
	}
	for w.deferIdx < len(w.deferQ) {
		job := w.deferQ[w.deferIdx]
		if !job.arrived {
			return // preserve document order
		}
		w.deferIdx++
		if job.failed {
			job.done = true
			continue
		}
		exe := b.newOp(op.KindScript, "exe defer "+job.node.Attrs["src"])
		b.HB.Edge(job.parseOp, exe)    // HB rule 2
		b.HB.Edge(w.finalParseOp, exe) // HB rule 4 (create(E) ≺ dcl ⇒ create(E) ⇝ exe)
		if w.deferIdx >= 2 {
			if prev := w.deferQ[w.deferIdx-2]; prev.ldLast != op.None {
				b.HB.Edge(prev.ldLast, exe) // HB rule 5
			}
		}
		b.withOp(exe, func() { w.runScript(job.body, "defer "+job.node.Attrs["src"]) })
		ld := w.fireScriptLoad(job.node, exe)
		job.ldLast = ld.Last
		job.done = true
	}
	w.maybeFireDCL()
}

// ---- frames & images ----

func (w *Window) handleIframe(n *dom.Node, creator op.ID) {
	src := n.Attrs["src"]
	if src == "" {
		return
	}
	b := w.b
	if !w.loadFired {
		w.blockers++
	}
	child := b.newWindow(src, w, n)
	child.chainOp = creator // HB rule 6: create(I) ⇝ create(E in nested doc)
	resp := b.fetch(src)
	b.schedule(resp.Latency, func() {
		if !resp.OK() {
			b.pageError("fetch iframe "+src, respError(src, resp))
			// The iframe element's error event fires in the parent
			// document; its handlers precede ld(W) like a load would.
			disp := w.Dispatch(n, "error", DispatchOpts{Detail: fetchFailDetail(resp)})
			w.resourceDone(disp.Last)
			return
		}
		child.beginParse(resp.Body)
	})
}

func (w *Window) maybeLoadImage(n *dom.Node, creator op.ID) {
	src := n.Attrs["src"]
	if src == "" || n.Attrs["__loading__"] != "" {
		return
	}
	n.Attrs["__loading__"] = "1"
	b := w.b
	blocking := !w.loadFired
	if blocking {
		w.blockers++
	}
	resp := b.fetch(src)
	b.schedule(resp.Latency, func() {
		if !resp.OK() {
			b.pageError("fetch img "+src, respError(src, resp))
			disp := w.Dispatch(n, "error", DispatchOpts{Detail: fetchFailDetail(resp)})
			if blocking {
				w.resourceDone(disp.Last)
			}
			return
		}
		ld := w.Dispatch(n, "load", DispatchOpts{})
		if blocking {
			w.resourceDone(ld.Last)
		}
	})
	_ = creator
}

// resourceDone accounts a finished window-load blocker; ldLast (if any)
// becomes a rule 15 predecessor of the window load event.
func (w *Window) resourceDone(ldLast op.ID) {
	if ldLast != op.None {
		w.loadEdges = append(w.loadEdges, ldLast) // HB rule 15
	}
	w.blockers--
	w.checkLoad()
}

// ---- DOMContentLoaded and window load ----

func (w *Window) finishParse() {
	w.parseDone = true
	w.finalParseOp = w.chainOp
	w.pumpDefers()
}

func (w *Window) maybeFireDCL() {
	if w.dclDone || !w.parseDone || w.deferIdx < len(w.deferQ) {
		return
	}
	w.dclDone = true
	preds := []op.ID{w.finalParseOp} // HB rules 12, 13 (via the static chain)
	for _, job := range w.deferQ {
		if job.ldLast != op.None {
			preds = append(preds, job.ldLast) // HB rule 14
		}
	}
	disp := w.Dispatch(w.Doc.Root, "DOMContentLoaded", DispatchOpts{ExtraPreds: preds})
	w.dclLast = disp.Last
	w.checkLoad()
}

func (w *Window) checkLoad() {
	if w.loadFired || w.loadScheduled || !w.dclDone || w.blockers > 0 {
		return
	}
	w.loadScheduled = true
	w.b.schedule(0, w.fireLoad)
}

func (w *Window) fireLoad() {
	w.loadScheduled = false
	if w.loadFired || w.blockers > 0 || !w.dclDone {
		return // a script created new blockers in the meantime
	}
	preds := append([]op.ID{w.dclLast}, w.loadEdges...) // HB rules 11, 15
	// The document reaches "complete" before the load event dispatches,
	// so load handlers observe the final readyState.
	w.loadFired = true
	w.LoadDisp = w.Dispatch(w.winNode, "load", DispatchOpts{ExtraPreds: preds})
	if w.parent != nil && w.frameElem != nil {
		// HB rule 7: ld(W_I) ⇝ ld(I).
		frameLd := w.parent.Dispatch(w.frameElem, "load",
			DispatchOpts{ExtraPreds: []op.ID{w.LoadDisp.Last}})
		w.parent.resourceDone(frameLd.Last)
	}
}
