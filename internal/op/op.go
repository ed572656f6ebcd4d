// Package op defines the operation identifiers and kinds that make up an
// execution of a web application, following §3.2 of "Race Detection for Web
// Applications" (PLDI 2012).
//
// Strictly the paper has only two atomic operation types during page
// loading — parsing an HTML element and executing script code — but, as in
// the paper, script execution is split into several kinds for convenience
// (inline/external script bodies, event handlers, timer callbacks).  Two
// additional synthetic kinds, Anchor and Join, represent the begin/end
// barriers of an event-dispatch set dispᵢ(E, T); they perform no memory
// accesses and exist purely so that happens-before edges to or from a whole
// dispatch set (e.g. rule 9 or rule 15) cost O(1) edges.
package op

import "fmt"

// ID identifies a single operation in an execution. IDs are dense, start at
// 1 and increase in the order operations are registered. None (0) is the ⊥
// value used by the race detector's LastRead/LastWrite maps before any
// access has been seen.
type ID int32

// None is the ⊥ operation identifier.
const None ID = 0

// Kind classifies an operation per §3.2.
type Kind uint8

const (
	// KindInit is the synthetic root operation that starts a page load.
	// Every other operation is transitively happens-after it.
	KindInit Kind = iota
	// KindParse is parse(E): parsing one static HTML element E.
	KindParse
	// KindScript is exe(E): executing the source of a script element E
	// (static or script-inserted).
	KindScript
	// KindHandler is the execution of one event handler due to an event
	// dispatch (an element of dispᵢ(E, T)).
	KindHandler
	// KindTimeout is cb(E): the callback of a setTimeout(E, _) call.
	KindTimeout
	// KindInterval is cbᵢ(E): the i-th callback of a setInterval(E, _).
	KindInterval
	// KindAnchor is the synthetic begin barrier of a dispatch set.
	KindAnchor
	// KindJoin is a synthetic barrier between handler groups inside one
	// dispatch (Appendix A phase/target ordering) and the end barrier of
	// a dispatch set.
	KindJoin
	// KindUser is a simulated user interaction that is not handler
	// execution itself (e.g. the logical "user typed into the box" write
	// source, §4.1 Additional Cases).
	KindUser
	// KindContinuation is the remainder A[k+1:|A|) of an operation A that
	// was split by an inline event dispatch (Appendix A).
	KindContinuation
	// KindNetwork is a network completion step that runs no user code
	// (e.g. resource bytes arriving) but can carry happens-before edges.
	KindNetwork
)

var kindNames = [...]string{
	KindInit:         "init",
	KindParse:        "parse",
	KindScript:       "exe",
	KindHandler:      "handler",
	KindTimeout:      "cb",
	KindInterval:     "cbi",
	KindAnchor:       "anchor",
	KindJoin:         "join",
	KindUser:         "user",
	KindContinuation: "cont",
	KindNetwork:      "net",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op describes one registered operation. The Label is free-form context for
// reports ("parse <div id=dw>", "exe main.js", `handler click #send`).
type Op struct {
	ID    ID
	Kind  Kind
	Label string
	// Seq is the order in which the operation began executing; for
	// operations that never ran (e.g. a timer cleared before firing) Seq
	// is -1. The detector does not depend on Seq; it is for reports.
	Seq int32
}

func (o Op) String() string {
	if o.Label == "" {
		return fmt.Sprintf("#%d:%s", o.ID, o.Kind)
	}
	return fmt.Sprintf("#%d:%s(%s)", o.ID, o.Kind, o.Label)
}

// Table owns the set of operations of one execution. The zero value is
// ready to use. Operations live in fixed-size chunks that are never
// reallocated, so registering one never copies the ones before it.
type Table struct {
	chunks [][]Op // chunks[i>>opChunkBits][i&(opChunk-1)] is ID(i+1)
	n      int
	seq    int32
}

// A chunk holds opChunk operations: 64 ops of 32 bytes fill one 2 KiB
// size class exactly.
const (
	opChunkBits = 6
	opChunk     = 1 << opChunkBits
)

// New registers a new operation of the given kind and returns its ID.
func (t *Table) New(kind Kind, label string) ID {
	if t.n&(opChunk-1) == 0 {
		t.chunks = append(t.chunks, make([]Op, opChunk))
	}
	t.n++
	id := ID(t.n)
	*t.get(id) = Op{ID: id, Kind: kind, Label: label, Seq: -1}
	return id
}

// Began records that the operation started executing, stamping its sequence
// number. Calling Began twice is a no-op for the second call.
func (t *Table) Began(id ID) {
	o := t.get(id)
	if o.Seq < 0 {
		o.Seq = t.seq
		t.seq++
	}
}

// Get returns a copy of the operation record. It panics on an unknown or
// None ID: callers hold only IDs minted by New.
func (t *Table) Get(id ID) Op { return *t.get(id) }

// Len reports how many operations have been registered.
func (t *Table) Len() int { return t.n }

// SetLabel replaces an operation's label (used when the label is only known
// after registration, e.g. the URL of a script-inserted script).
func (t *Table) SetLabel(id ID, label string) { t.get(id).Label = label }

func (t *Table) get(id ID) *Op {
	if id <= None || int(id) > t.n {
		panic(fmt.Sprintf("op: invalid ID %d (have %d ops)", id, t.n))
	}
	i := int(id) - 1
	return &t.chunks[i>>opChunkBits][i&(opChunk-1)]
}
