package browser

import (
	"fmt"

	"webracer/internal/dom"
	"webracer/internal/js"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// DispatchOpts tunes one event dispatch.
type DispatchOpts struct {
	// ExtraPreds are additional happens-before predecessors of the
	// dispatch's anchor (rules 3, 7, 10, 11, 14, 15 feed in here).
	ExtraPreds []op.ID
	// Bubbles enables the bubbling phase (click and other UI events).
	Bubbles bool
	// Detail annotates operation labels.
	Detail string
}

// DispatchResult summarizes a dispatch: Anchor is its begin barrier, Last
// the operation that every handler of the dispatch happens-before (used for
// outgoing set-edges like rules 7 and 9), Handlers the number of handler
// operations executed.
type DispatchResult struct {
	Anchor   op.ID
	Last     op.ID
	Handlers int
	// DefaultPrevented is set when some handler called preventDefault;
	// callers with default actions (javascript: links) honor it.
	DefaultPrevented bool
}

// bubblingEvents per DOM Level 3: UI interaction events propagate; load,
// focus and blur do not.
var bubblingEvents = map[string]bool{
	"click": true, "mousedown": true, "mouseup": true, "mousemove": true,
	"mouseover": true, "mouseout": true, "keydown": true, "keyup": true,
	"keypress": true, "input": true, "change": true,
}

// Dispatch fires event on target, executing registered handlers through the
// capturing, at-target and bubbling phases of Appendix A.
//
// Happens-before bookkeeping:
//   - create(T) ⇝ anchor (rule 8)
//   - previous dispatch of (event, T) ⇝ anchor (rule 9)
//   - handlers are grouped by (phase, current target); groups are ordered
//     through join barriers, but handlers *within* one group are left
//     unordered, matching the paper's erring toward fewer edges.
//
// Memory model bookkeeping:
//   - the dispatch reads the on-event attribute slot (T, event, 0) — the
//     implicit browser read that exposes Fig. 5's event dispatch race;
//   - each executed handler h reads (currentTarget, event, h) (§4.3).
func (w *Window) Dispatch(target *dom.Node, event string, opts DispatchOpts) DispatchResult {
	b := w.b
	b.mDispatch.Inc()
	key := dispKey{target, event}
	ds := w.disp[key]
	if ds == nil {
		ds = &dispState{}
		w.disp[key] = ds
	}
	label := event + " on " + target.String()
	if opts.Detail != "" {
		label += " (" + opts.Detail + ")"
	}
	anchor := b.newOp(op.KindAnchor, label)
	for _, p := range opts.ExtraPreds {
		b.HB.Edge(p, anchor)
	}
	if c, ok := b.createOps[target]; ok {
		b.HB.Edge(c, anchor) // HB rule 8
	}
	if ds.count > 0 {
		// HB rule 9: successive dispatches of the same (event, target) are
		// ordered in observed firing order. Nothing causal forces that
		// order — two independent callers of element.click() could fire
		// either way — so the edge is weak: full happens-before keeps it,
		// the predictive order (hb.NewPredictiveClocks) drops it.
		b.HB.WeakEdge(ds.last, anchor)
	}
	b.Ops.Began(anchor)
	b.withOp(anchor, func() {
		b.Access(mem.Read, mem.HandlerLoc(target.Serial, event, 0), mem.CtxHandlerFire,
			"dispatch "+event)
	})

	bubbles := opts.Bubbles || bubblingEvents[event]
	groups := w.propagationGroups(target, event, bubbles)
	prev := anchor
	handlers := 0
	state := &eventState{}
	for _, g := range groups {
		if len(g.listeners) == 0 {
			continue
		}
		hops := make([]op.ID, 0, len(g.listeners))
		for _, l := range g.listeners {
			h := b.newOp(op.KindHandler, fmt.Sprintf("handler %s@%s", event, g.target.String()))
			if b.cfg.OrderSameTargetHandlers && len(hops) > 0 {
				// Ablation variant: chain same-group handlers.
				b.HB.Edge(hops[len(hops)-1], h)
			} else {
				b.HB.Edge(prev, h)
			}
			hops = append(hops, h)
			w.runHandler(h, g.target, event, l, state)
			handlers++
			if state.stopImmediate {
				break
			}
		}
		join := b.newOp(op.KindJoin, "join "+event)
		for _, h := range hops {
			b.HB.Edge(h, join)
		}
		b.Ops.Began(join)
		prev = join
		if state.stopped || state.stopImmediate {
			break // stopPropagation: no further targets see the event
		}
	}
	ds.count++
	ds.last = prev
	return DispatchResult{
		Anchor:           anchor,
		Last:             prev,
		Handlers:         handlers,
		DefaultPrevented: state.prevented,
	}
}

// eventState carries the mutable flags of one dispatched event.
type eventState struct {
	stopped       bool // stopPropagation: finish this target, skip the rest
	stopImmediate bool // stopImmediatePropagation: skip everything
	prevented     bool // preventDefault: suppress the default action
}

type phaseGroup struct {
	target    *dom.Node
	listeners []*dom.Listener
}

// propagationGroups builds the (phase, current target) handler groups of
// one dispatch: capturing root→parent, at-target, bubbling parent→root.
// The groups and the filtered listeners each take one allocation, sized
// up front.
func (w *Window) propagationGroups(target *dom.Node, event string, bubbles bool) []phaseGroup {
	depth, total := 0, 0 // target's ancestors, and their listeners for event
	for n := target.Parent; n != nil; n = n.Parent {
		depth++
		total += len(n.Listeners(event))
	}
	size := depth + 1
	if bubbles {
		size += depth
	}
	groups := make([]phaseGroup, size)
	var buf []*dom.Listener
	if total > 0 {
		buf = make([]*dom.Listener, 0, total)
	}
	// Capturing: ancestors top-down, capture listeners only. Bubbling:
	// ancestors bottom-up, non-capture listeners.
	k := depth
	for n := target.Parent; n != nil; n = n.Parent {
		k--
		groups[k] = phaseGroup{n, filterListeners(&buf, n, event, true)}
		if bubbles {
			groups[2*depth-k] = phaseGroup{n, filterListeners(&buf, n, event, false)}
		}
	}
	// At-target: all listeners in registration order.
	groups[depth] = phaseGroup{target, target.Listeners(event)}
	return groups
}

// filterListeners appends n's listeners for event in the given phase to
// buf and returns them.
func filterListeners(buf *[]*dom.Listener, n *dom.Node, event string, capture bool) []*dom.Listener {
	start := len(*buf)
	for _, l := range n.Listeners(event) {
		if l.Capture == capture {
			*buf = append(*buf, l)
		}
	}
	return (*buf)[start:len(*buf):len(*buf)]
}

// runHandler executes one listener as operation h: the §4.3 handler-location
// read followed by the handler body, with crash containment.
func (w *Window) runHandler(h op.ID, currentTarget *dom.Node, event string, l *dom.Listener, state *eventState) {
	b := w.b
	b.withOp(h, func() {
		b.Access(mem.Read, mem.HandlerLoc(currentTarget.Serial, event, l.HandlerID),
			mem.CtxHandlerFire, "run handler for "+event)
		fn, err := w.listenerFunc(l)
		if err != nil {
			b.pageError("compile handler "+event, err)
			return
		}
		if !fn.IsCallable() {
			return
		}
		evObj := w.newEventObject(event, currentTarget, state)
		if _, err := w.It.CallFunction(fn, w.NodeValue(currentTarget), []js.Value{evObj}); err != nil {
			w.scriptError("handler "+event+" on "+currentTarget.String(), err)
		}
	})
}

// listenerFunc resolves a listener to a callable, compiling attribute
// source text on first dispatch (and caching the result in the listener).
func (w *Window) listenerFunc(l *dom.Listener) (js.Value, error) {
	switch fn := l.Fn.(type) {
	case js.Value:
		return fn, nil
	case string:
		v, err := w.It.CompileFunction(fn, "event")
		if err != nil {
			return js.Undefined, err
		}
		l.Fn = v
		return v, nil
	default:
		return js.Undefined, nil
	}
}

// newEventObject makes the event object one handler receives. Its
// methods are reserved, not built: each is made on first read, bound to
// the dispatch's state.
func (w *Window) newEventObject(event string, target *dom.Node, state *eventState) js.Value {
	o := w.It.NewObject("Event")
	o.Host = state
	o.SetProp("type", js.Str(event))
	o.SetProp("target", w.NodeValue(target))
	o.SetProp("currentTarget", w.NodeValue(target))
	w.It.ReserveMethod(o, "preventDefault")
	w.It.ReserveMethod(o, "stopPropagation")
	w.It.ReserveMethod(o, "stopImmediatePropagation")
	return js.ObjectVal(o)
}

// HostGet implements js.HostObject: an event's properties are plain.
func (s *eventState) HostGet(*js.Interp, string) (js.Value, bool, error) {
	return js.Undefined, false, nil
}

// HostSet implements js.HostObject: an event's properties are plain.
func (s *eventState) HostSet(*js.Interp, string, js.Value) (bool, error) { return false, nil }

// BindMethod implements js.MethodBinder: the event methods set the
// dispatch's flags.
func (s *eventState) BindMethod(name string) js.NativeFn {
	var flag *bool
	switch name {
	case "preventDefault":
		flag = &s.prevented
	case "stopPropagation":
		flag = &s.stopped
	case "stopImmediatePropagation":
		flag = &s.stopImmediate
	default:
		panic("browser: no event method " + name)
	}
	return func(_ *js.Interp, _ js.Value, _ []js.Value) (js.Value, error) {
		*flag = true
		return js.Undefined, nil
	}
}

// InlineDispatch fires an event from inside running script (element.click()
// or a javascript: default action), splitting the current operation A into
// A[0:k) ⇝ dispatch ⇝ A[k+1:|A|) per Appendix A. The interpreter resumes
// under the continuation operation.
func (w *Window) InlineDispatch(target *dom.Node, event string, opts DispatchOpts) DispatchResult {
	b := w.b
	before := b.curOp
	opts.ExtraPreds = append(opts.ExtraPreds, before) // A[0:k) ⇝ B
	res := w.Dispatch(target, event, opts)
	cont := b.newOp(op.KindContinuation, "cont after inline "+event)
	b.HB.Edge(before, cont)
	b.HB.Edge(res.Last, cont) // B ⇝ A[k+1:|A|)
	b.Ops.Began(cont)
	b.curOp = cont
	return res
}

// SimulateTyping models a user typing into a form field (§5.2.2): a user
// operation writes the field's value (the §4.1 "Additional Cases" write,
// tagged CtxUserInput so the form filter can see it), then the input event
// dispatches. This is the mechanism that exposes Fig. 2's lost-input race.
func (w *Window) SimulateTyping(n *dom.Node, text string) DispatchResult {
	b := w.b
	u := b.newOp(op.KindUser, "user types into "+n.String())
	if c, ok := b.createOps[n]; ok {
		b.HB.Edge(c, u) // the field must exist to be typed into (rule 8 analogue)
	}
	b.withOp(u, func() {
		b.Access(mem.Write, mem.VarLoc(n.Serial, "value"), mem.CtxUserInput,
			"user types "+fmt.Sprintf("%q", text))
		n.Value = text
	})
	return w.Dispatch(n, "input", DispatchOpts{ExtraPreds: []op.ID{u}, Detail: "typing"})
}

// UserDispatch fires an event as a simulated user action (automatic
// exploration, §5.2.2): no predecessor beyond rules 8 and 9. The browser
// default action (javascript: link navigation) runs afterwards unless a
// handler called preventDefault.
func (w *Window) UserDispatch(target *dom.Node, event string) DispatchResult {
	res := w.Dispatch(target, event, DispatchOpts{Detail: "user"})
	if !res.DefaultPrevented {
		w.runDefaultAction(target, event)
	}
	return res
}

// runDefaultAction performs the browser default action after dispatch: a
// click on an <a href="javascript:..."> link executes the code (Fig. 3's
// Send Email link); a click on a checkbox or radio toggles its checked
// state — a form-state write per §4.1 "Additional Cases".
func (w *Window) runDefaultAction(target *dom.Node, event string) {
	if event != "click" {
		return
	}
	b := w.b
	switch {
	case target.Tag == "a":
		href := target.Attrs["href"]
		const proto = "javascript:"
		if len(href) < len(proto) || href[:len(proto)] != proto {
			return
		}
		def := b.newOp(op.KindHandler, "default action "+target.String())
		if c, ok := b.createOps[target]; ok {
			b.HB.Edge(c, def)
		}
		if ds, ok := w.disp[dispKey{target, event}]; ok {
			b.HB.Edge(ds.last, def)
		}
		b.withOp(def, func() { w.runScript(href[len(proto):], "javascript: link") })
	case target.Tag == "input" && (target.Attrs["type"] == "checkbox" || target.Attrs["type"] == "radio"):
		def := b.newOp(op.KindUser, "toggle "+target.String())
		if c, ok := b.createOps[target]; ok {
			b.HB.Edge(c, def)
		}
		if ds, ok := w.disp[dispKey{target, event}]; ok {
			b.HB.Edge(ds.last, def)
		}
		b.withOp(def, func() {
			b.Access(mem.Write, mem.VarLoc(target.Serial, "checked"), mem.CtxUserInput,
				"user toggles "+target.String())
			if target.Attrs["type"] == "checkbox" {
				target.Checked = !target.Checked
			} else {
				target.Checked = true
			}
		})
		w.Dispatch(target, "change", DispatchOpts{ExtraPreds: []op.ID{def}})
	}
}
