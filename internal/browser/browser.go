// Package browser is the simulated single-threaded browser WebRacer
// instruments: an event loop over virtual time that interleaves incremental
// HTML parsing, script execution, timer callbacks, simulated network
// completions and (simulated) user events — the environmental asynchrony
// that produces the paper's races (§2.1).
//
// The browser is where the happens-before rules of §3.3 are materialized:
// every operation the page performs is registered in an op.Table, the rules
// add edges to an hb.Graph at the named sites below (grep "HB rule"), and
// every shared-memory access of §4 is forwarded to the race detector
// stamped with the current operation.
package browser

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"time"

	"webracer/internal/dom"
	"webracer/internal/hb"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/obs"
	"webracer/internal/op"
	"webracer/internal/race"
)

// Config tunes a simulated browsing session.
type Config struct {
	// Seed drives every random choice (network latencies, Math.random).
	Seed int64
	// Latency is the network model; zero value means loader.DefaultLatency.
	Latency loader.Latency
	// ParseStepCost is the virtual milliseconds consumed parsing one
	// element (models CPU speed; default 0.2).
	ParseStepCost float64
	// MaxTasks bounds event-loop turns (runaway guard; default 200000).
	MaxTasks int
	// MaxVirtualTime stops the session after this many virtual ms
	// (default 120000).
	MaxVirtualTime float64
	// MaxIntervalTicks bounds how many times one setInterval fires
	// (real pages poll forever; WebRacer's operator closed the page —
	// default 25).
	MaxIntervalTicks int
	// SharedFrameGlobals makes the global variables of nested frames
	// share the parent's logical location space, matching the paper's
	// Fig. 1 model of cross-frame variable races. Default true; see
	// DESIGN.md.
	SharedFrameGlobals bool
	// ReportAll disables the at-most-one-race-per-location cap.
	ReportAll bool
	// NoInstrument disables memory-access instrumentation entirely
	// (the interpreter runs without hooks and the browser performs no
	// detector work). It is the uninstrumented baseline of the §6
	// performance experiment; races cannot be detected in this mode.
	NoInstrument bool
	// InstrumentTimerClears enables the extension the paper leaves as
	// future work (§7): clearTimeout/clearInterval may race with the
	// execution of the handler they try to cancel. When set, each timer
	// gets a logical location written by setTimeout/clear* and read by
	// the callback's execution, so a concurrent clear is reported.
	InstrumentTimerClears bool
	// OrderSameTargetHandlers adds happens-before edges between handlers
	// of the same (phase, target) group within one dispatch, in their
	// execution order. The paper leaves them unordered ("with fewer
	// happens-before edges, more possible races are exposed"); this flag
	// is the other side of that Appendix A design choice, exposed for
	// the ablation experiment.
	OrderSameTargetHandlers bool
	// RecordTrace captures the access trace for replay (experiment E4).
	RecordTrace bool
	// Detector overrides the default Pairwise detector. It receives the
	// browser's happens-before graph.
	Detector func(*hb.Graph) race.Detector
	// WrapFetcher, when non-nil, wraps the session's base loader —
	// the hook internal/fault uses to inject deterministic network
	// faults without the browser knowing.
	WrapFetcher func(loader.Fetcher) loader.Fetcher
	// WallBudget caps the session's real (wall-clock) run time; 0 means
	// unlimited. A tripped budget stops the event loop between tasks,
	// marks the session Interrupted, and leaves all results gathered so
	// far intact — the partial-results path that keeps one pathological
	// page from stalling a whole sweep. Interrupted sessions are not
	// deterministic (the trip point depends on host speed); sweeps
	// report them as degraded rather than folding them into aggregates.
	WallBudget time.Duration
	// Ctx cancels the session between tasks (nil means never). Like
	// WallBudget, cancellation marks the session Interrupted with
	// partial results.
	Ctx context.Context
	// Metrics, when non-nil, receives the session's deterministic
	// telemetry counters (see internal/obs). Each session should get its
	// own registry so parallel sweeps stay independent; the session layer
	// folds end-of-run stats into it as well.
	Metrics *obs.Metrics
	// Trace, when non-nil, records the session as a Chrome trace_event
	// stream over virtual time: every operation becomes a main-thread
	// span, fetches/timers/XHRs become async spans, fault injections
	// become instant events.
	Trace *obs.TraceLog
	// Programs, when non-nil, is the parse memo every window's
	// interpreter (iframes included) parses scripts and handler source
	// through. A sweep shares one memo across its runs so each script is
	// parsed once per sweep; nil parses every source afresh.
	Programs *js.Programs
}

func (c Config) withDefaults() Config {
	if c.Latency.Base == 0 && c.Latency.Jitter == 0 && c.Latency.PerURL == nil {
		c.Latency = loader.DefaultLatency()
	}
	if c.ParseStepCost == 0 {
		c.ParseStepCost = 0.2
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 200_000
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = 120_000
	}
	if c.MaxIntervalTicks == 0 {
		c.MaxIntervalTicks = 25
	}
	return c
}

// PageError is a script crash or load failure observed during the session.
// Hidden crashes are first-class data (§2.3): the harm oracle classifies
// HTML and function races by the crashes they cause.
type PageError struct {
	Op    op.ID
	Where string
	Err   error
}

func (e PageError) String() string { return fmt.Sprintf("[op#%d %s] %v", e.Op, e.Where, e.Err) }

// Browser is one simulated browsing session over one site.
type Browser struct {
	Ops     *op.Table
	HB      *hb.Graph
	Serials *dom.Serials
	Loader  loader.Fetcher

	// Errors collects script crashes and resource failures.
	Errors []PageError
	// Console collects console.log/alert output.
	Console []string
	// Interrupted is non-empty when the session was stopped early —
	// wall-clock budget, context cancellation, or the virtual-time/task
	// safety bounds — and names the reason. Results gathered before the
	// interrupt remain valid (partial-results path).
	Interrupted string

	cfg Config
	// rng is Math.random's source, seeded on the first draw: most pages
	// never call it, and seeding a source is not free.
	rng      *rand.Rand
	clock    float64
	tasks    taskHeap
	seq      int64
	tasksRun int
	started  time.Time

	detector race.Detector
	recorder *race.Recorder

	top     *Window
	windows []*Window

	curOp  op.ID
	initOp op.ID
	// createOps maps DOM nodes to the operation that inserted them
	// (create(E) in the rules).
	createOps map[*dom.Node]op.ID
	// userSeq orders synthetic user operations (rule 9 for user events is
	// handled per (event,target) in the window's dispatch state).
	quiesced bool

	// Cached telemetry handles (all nil — and therefore free — when
	// cfg.Metrics is nil; obs counters are nil-safe). Looked up once here
	// so hot paths never touch the registry map.
	mParseElem *obs.Counter
	mParseText *obs.Counter
	mDispatch  *obs.Counter
	mTimers    *obs.Counter
	mXHRs      *obs.Counter
}

// New creates a browser session over site.
func New(site *loader.Site, cfg Config) *Browser {
	cfg = cfg.withDefaults()
	b := &Browser{
		Ops:       &op.Table{},
		HB:        hb.NewGraph(),
		Serials:   &dom.Serials{},
		cfg:       cfg,
		createOps: map[*dom.Node]op.ID{},
	}
	b.started = time.Now()
	b.Loader = loader.New(site, cfg.Latency, cfg.Seed+1)
	if cfg.WrapFetcher != nil {
		b.Loader = cfg.WrapFetcher(b.Loader)
	}
	if cfg.Detector != nil {
		b.detector = cfg.Detector(b.HB)
	} else {
		var opts []race.Option
		if cfg.ReportAll {
			opts = append(opts, race.ReportAll())
		}
		b.detector = race.NewPairwise(b.HB, opts...)
	}
	if cfg.RecordTrace {
		b.recorder = &race.Recorder{Inner: b.detector}
		b.detector = b.recorder
	}
	b.mParseElem = cfg.Metrics.Counter("parse.elements")
	b.mParseText = cfg.Metrics.Counter("parse.text_nodes")
	b.mDispatch = cfg.Metrics.Counter("browser.dispatches")
	b.mTimers = cfg.Metrics.Counter("browser.timers_installed")
	b.mXHRs = cfg.Metrics.Counter("browser.xhr_sends")
	b.initOp = b.newOp(op.KindInit, "session")
	b.Ops.Began(b.initOp)
	b.curOp = b.initOp
	return b
}

// random draws the next Math.random value from the session's seeded
// source.
func (b *Browser) random() float64 {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.cfg.Seed))
	}
	return b.rng.Float64()
}

// Detector returns the active race detector.
func (b *Browser) Detector() race.Detector { return b.detector }

// SetDetector replaces the session's detector, typically after the run
// with one that analyzed the same accesses offline. A *race.Recorder
// becomes the session's trace source (Trace); any other detector leaves
// the session without a trace.
func (b *Browser) SetDetector(d race.Detector) {
	b.detector = d
	b.recorder, _ = d.(*race.Recorder)
}

// Reports returns the races found so far.
func (b *Browser) Reports() []race.Report { return b.detector.Reports() }

// Trace returns the recorded access trace (RecordTrace must be set).
func (b *Browser) Trace() []race.Access {
	if b.recorder == nil {
		return nil
	}
	return b.recorder.Trace()
}

// EachTraceChunk calls f on the recorded access trace chunk by chunk, in
// place (see race.Recorder.EachChunk); never when the trace was not
// recorded.
func (b *Browser) EachTraceChunk(f func([]race.Access)) {
	if b.recorder != nil {
		b.recorder.EachChunk(f)
	}
}

// Top returns the top-level window (nil before LoadPage).
func (b *Browser) Top() *Window { return b.top }

// Windows returns every window (top and frames) in creation order.
func (b *Browser) Windows() []*Window { return b.windows }

// windowForFrame resolves the child window loaded into an iframe element.
func (b *Browser) windowForFrame(frame *dom.Node) *Window {
	for _, w := range b.windows {
		if w.frameElem == frame {
			return w
		}
	}
	return nil
}

// Clock returns the current virtual time in milliseconds.
func (b *Browser) Clock() float64 { return b.clock }

// Stats summarizes a finished session.
type Stats struct {
	Ops         int
	OpsByKind   map[string]int
	Edges       int
	TasksRun    int
	VirtualTime float64
	Windows     int
	Fetches     int
	Errors      int
}

// Stats computes the session summary.
func (b *Browser) Stats() Stats {
	byKind := map[string]int{}
	for i := 1; i <= b.Ops.Len(); i++ {
		byKind[b.Ops.Get(op.ID(i)).Kind.String()]++
	}
	return Stats{
		Ops:         b.Ops.Len(),
		OpsByKind:   byKind,
		Edges:       b.HB.Edges(),
		TasksRun:    b.tasksRun,
		VirtualTime: b.clock,
		Windows:     len(b.windows),
		Fetches:     b.Loader.Fetches(),
		Errors:      len(b.Errors),
	}
}

// Config returns the active (defaulted) configuration.
func (b *Browser) Config() Config { return b.cfg }

// ---- operations & instrumentation ----

// newOp registers an operation and its happens-before node.
func (b *Browser) newOp(kind op.Kind, label string) op.ID {
	id := b.Ops.New(kind, label)
	b.HB.AddNode(id)
	return id
}

// withOp runs f with id as the current operation. When tracing, the
// operation becomes a main-thread span over virtual time, annotated with
// its happens-before predecessors so an ordering question ("why did the
// detector consider these concurrent?") can be answered from the trace.
func (b *Browser) withOp(id op.ID, f func()) {
	prev := b.curOp
	b.curOp = id
	b.Ops.Began(id)
	if tr := b.cfg.Trace; tr != nil {
		rec := b.Ops.Get(id)
		tr.BeginSpan(traceCat(rec.Kind), rec.Label, b.clock)
		f()
		tr.EndSpan(b.clock, b.spanArgs(id))
	} else {
		f()
	}
	b.curOp = prev
}

// traceCat maps an operation kind to its Chrome trace category, the axis
// Perfetto colors and filters by.
func traceCat(k op.Kind) string {
	switch k {
	case op.KindInit:
		return "task"
	case op.KindParse:
		return "parse"
	case op.KindScript:
		return "script"
	case op.KindTimeout, op.KindInterval:
		return "timer"
	case op.KindNetwork:
		return "net"
	default: // handlers, anchors, joins, user ops, continuations
		return "event"
	}
}

// spanArgs builds the args payload of an operation span: the op id and its
// direct happens-before predecessors at span close.
func (b *Browser) spanArgs(id op.ID) map[string]any {
	preds := b.HB.Preds(id)
	ps := make([]any, len(preds))
	for i, p := range preds {
		ps[i] = int(p)
	}
	return map[string]any{"op": int(id), "hb_preds": ps}
}

// timerSpanID names the async span of one armed timer callback by its
// callback operation, which is unique per arming (intervals re-arm with a
// fresh op per tick).
func timerSpanID(cb op.ID) string { return fmt.Sprintf("t%d", cb) }

// fetch routes every resource load through the loader while stamping it
// into the trace as an async span spanning the virtual latency window
// (request issue → scheduled arrival).
func (b *Browser) fetch(url string) loader.Response {
	resp := b.Loader.Fetch(url)
	if tr := b.cfg.Trace; tr != nil {
		args := map[string]any{"status": resp.Status}
		if resp.Err != nil {
			args["error"] = resp.Err.Error()
		}
		if resp.Truncated {
			args["truncated"] = true
		}
		id := fmt.Sprintf("f%d", b.Loader.Fetches())
		tr.Async("fetch", url, id, b.clock, b.clock+resp.Latency, args)
	}
	return resp
}

// CurrentOp exposes the op being executed (tests and the explore package).
func (b *Browser) CurrentOp() op.ID { return b.curOp }

// Access implements js.Hooks: every shared-memory access of the interpreter
// reaches the detector stamped with the current operation.
func (b *Browser) Access(kind mem.AccessKind, loc mem.Loc, ctx mem.Context, desc string) {
	if b.cfg.NoInstrument {
		return
	}
	b.detector.OnAccess(race.Access{Kind: kind, Loc: loc, Op: b.curOp, Ctx: ctx, Desc: desc})
}

// pageError records a script crash or load failure.
func (b *Browser) pageError(where string, err error) {
	b.Errors = append(b.Errors, PageError{Op: b.curOp, Where: where, Err: err})
}

// scriptError records a crash AND notifies the page via the window error
// event (window.onerror), as real browsers do for uncaught exceptions. The
// dispatch is itself an operation: pages that install onerror late race
// with early crashes, a detectable event dispatch race.
func (w *Window) scriptError(where string, err error) {
	b := w.b
	b.pageError(where, err)
	crashOp := b.curOp
	b.schedule(0, func() {
		w.Dispatch(w.winNode, "error", DispatchOpts{
			ExtraPreds: []op.ID{crashOp},
			Detail:     where,
		})
	})
}

// ---- event loop ----

type task struct {
	at   float64
	seq  int64
	weak bool // weak tasks (interval ticks) don't keep the loop alive alone
	run  func()
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (b *Browser) now() float64  { return b.clock }
func (b *Browser) schedule(delay float64, run func()) *task {
	return b.scheduleTask(delay, false, run)
}

func (b *Browser) scheduleTask(delay float64, weak bool, run func()) *task {
	if delay < 0 {
		delay = 0
	}
	b.seq++
	t := &task{at: b.clock + delay, seq: b.seq, weak: weak, run: run}
	heap.Push(&b.tasks, t)
	return t
}

// ScheduleUserAction queues f to run as an event-loop task delay virtual
// milliseconds from now. The explore package and the harm oracle use it to
// inject user interactions at chosen points of the page load.
func (b *Browser) ScheduleUserAction(delay float64, f func()) {
	b.schedule(delay, f)
}

// weakGraceTurns is how many weak-only turns the loop grants before
// quiescing, so a polling interval can observe results produced by the last
// strong task (e.g. an XHR completion) before the session ends.
const weakGraceTurns = 8

// Run drains the event loop until quiescence (no tasks, or only weak tasks
// remain after a short grace budget) or a safety bound trips. It can be
// called repeatedly: LoadPage runs it once, automatic exploration queues
// more work and runs it again.
func (b *Browser) Run() {
	grace := weakGraceTurns
	for len(b.tasks) > 0 {
		if b.tasksRun >= b.cfg.MaxTasks {
			b.interrupt("task budget")
			return
		}
		if b.clock > b.cfg.MaxVirtualTime {
			b.interrupt("virtual-time budget")
			return
		}
		if b.tasksRun&63 == 0 && b.overWallBudget() {
			return
		}
		if b.onlyWeakTasks() {
			if grace <= 0 {
				return
			}
			grace--
		}
		t := heap.Pop(&b.tasks).(*task)
		if t.run == nil {
			continue // cancelled
		}
		if !t.weak {
			grace = weakGraceTurns
		}
		if t.at > b.clock {
			b.clock = t.at
		}
		b.tasksRun++
		if tr := b.cfg.Trace; tr != nil {
			tr.BeginSpan("task", "turn", b.clock)
			t.run()
			tr.EndSpan(b.clock, map[string]any{"turn": b.tasksRun})
		} else {
			t.run()
		}
	}
	b.quiesced = true
}

// interrupt records the first early-stop reason (later trips keep it).
func (b *Browser) interrupt(reason string) {
	if b.Interrupted == "" {
		b.Interrupted = reason
	}
}

// overWallBudget checks the wall-clock budget and context; once either
// trips, the session stays interrupted — subsequent Run calls (automatic
// exploration schedules several) return immediately.
func (b *Browser) overWallBudget() bool {
	switch b.Interrupted {
	case "wall-clock budget", "canceled":
		return true
	}
	if b.cfg.WallBudget > 0 && time.Since(b.started) > b.cfg.WallBudget {
		b.interrupt("wall-clock budget")
		return true
	}
	if b.cfg.Ctx != nil && b.cfg.Ctx.Err() != nil {
		b.interrupt("canceled")
		return true
	}
	return false
}

func (b *Browser) onlyWeakTasks() bool {
	for _, t := range b.tasks {
		if !t.weak && t.run != nil {
			return false
		}
	}
	return true
}

// cancel neutralizes a scheduled task (clearTimeout/clearInterval).
func cancel(t *task) {
	if t != nil {
		t.run = nil
	}
}
