// Package dom implements the Document Object Model tree the simulated
// browser renders and scripts query or mutate. It is a pure data structure:
// the browser layer performs all happens-before bookkeeping and memory
// access instrumentation around calls into this package, mirroring how
// WebRacer instruments WebKit's DOM entry points rather than the tree
// itself (§5.2.1).
package dom

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Serials allocates node, object and function identities that are unique
// across every document of one browser, so logical memory locations
// (mem.Loc) never collide between frames.
type Serials struct{ next uint64 }

// Next returns a fresh non-zero serial.
func (s *Serials) Next() uint64 {
	s.next++
	return s.next
}

// Document is one DOM tree: the root page or the page inside an iframe.
type Document struct {
	// Root is the synthetic document node; static HTML elements become
	// its descendants.
	Root *Node
	// URL is the address the document was loaded from (for reports).
	URL string

	serials *Serials
	byID    map[string][]*Node
}

// NewDocument creates an empty document drawing identities from serials.
func NewDocument(url string, serials *Serials) *Document {
	d := &Document{URL: url, serials: serials, byID: make(map[string][]*Node)}
	d.Root = d.NewNode("#document")
	d.Root.InDoc = true
	return d
}

// NewNode creates a detached node owned by this document.
func (d *Document) NewNode(tag string) *Node {
	return &Node{
		Serial: d.serials.Next(),
		Tag:    strings.ToLower(tag),
		Doc:    d,
		Attrs:  map[string]string{},
	}
}

// NewText creates a detached text node.
func (d *Document) NewText(text string) *Node {
	n := d.NewNode("#text")
	n.Text = text
	return n
}

// GetElementByID returns the first in-document element with the given id
// attribute, in document insertion order, or nil.
func (d *Document) GetElementByID(id string) *Node {
	nodes := d.byID[id]
	if len(nodes) == 0 {
		return nil
	}
	return nodes[0]
}

// ElementsByTag returns all in-document elements with the given tag, in
// tree order.
func (d *Document) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	d.Root.walk(func(n *Node) {
		if n.Tag == tag {
			out = append(out, n)
		}
	})
	return out
}

// ElementsByName returns all in-document elements whose name attribute
// matches.
func (d *Document) ElementsByName(name string) []*Node {
	var out []*Node
	d.Root.walk(func(n *Node) {
		if n.Attrs["name"] == name {
			out = append(out, n)
		}
	})
	return out
}

// Collection returns the document-level live collection for the property
// name used by scripts: forms, images, links, anchors, scripts. Unknown
// names yield nil.
func (d *Document) Collection(name string) []*Node {
	switch name {
	case "forms":
		return d.ElementsByTag("form")
	case "images":
		return d.ElementsByTag("img")
	case "scripts":
		return d.ElementsByTag("script")
	case "links", "anchors":
		var out []*Node
		d.Root.walk(func(n *Node) {
			if n.Tag == "a" && n.Attrs["href"] != "" {
				out = append(out, n)
			}
		})
		return out
	default:
		return nil
	}
}

// Body returns the first <body> element, or the root when the page has no
// explicit body (the simplified parser does not synthesize one).
func (d *Document) Body() *Node {
	if b := d.ElementsByTag("body"); len(b) > 0 {
		return b[0]
	}
	return d.Root
}

// registerSubtree indexes a freshly inserted subtree.
func (d *Document) registerSubtree(n *Node) {
	n.walk(func(m *Node) {
		m.InDoc = true
		if id := m.Attrs["id"]; id != "" {
			d.byID[id] = append(d.byID[id], m)
			sort.Slice(d.byID[id], func(i, j int) bool {
				return d.byID[id][i].Serial < d.byID[id][j].Serial
			})
		}
	})
}

// unregisterSubtree removes an extracted subtree from indexes.
func (d *Document) unregisterSubtree(n *Node) {
	n.walk(func(m *Node) {
		m.InDoc = false
		if id := m.Attrs["id"]; id != "" {
			nodes := d.byID[id]
			for i, x := range nodes {
				if x == m {
					d.byID[id] = append(nodes[:i:i], nodes[i+1:]...)
					break
				}
			}
			if len(d.byID[id]) == 0 {
				delete(d.byID, id)
			}
		}
	})
}

// Listener is an event handler registered on a node. HandlerID is the
// identity h of the logical location (el, e, h): 0 for the single on-event
// attribute/property slot, otherwise the registered function's serial.
type Listener struct {
	HandlerID uint64
	// Fn is the handler: the browser stores either a source string (for
	// content attributes) or an interpreter function value.
	Fn any
	// Capture marks a capturing-phase listener (addEventListener's third
	// argument).
	Capture bool
}

// Node is one DOM node. Exposed fields are manipulated through the methods
// below so document indexes stay consistent.
type Node struct {
	Serial uint64
	Tag    string // lower-case tag name, "#text" or "#document"
	Text   string // text node content; script nodes keep source here too
	Attrs  map[string]string
	Parent *Node
	Kids   []*Node
	Doc    *Document
	InDoc  bool

	// Value and Checked model form field state (§4.1 Additional Cases).
	Value   string
	Checked bool

	// listeners maps event type to registered listeners in registration
	// order. The on-event attribute/property slot is the listener with
	// HandlerID 0 and is replaced in place on reassignment.
	listeners map[string][]*Listener

	// Inserted marks that the element-location write for this node has
	// been performed (used by the browser to avoid double instrumenting
	// nested dynamic insertion).
	Inserted bool
}

// ID returns the node's id attribute.
func (n *Node) ID() string { return n.Attrs["id"] }

func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.Tag == "#text" {
		t := n.Text
		if len(t) > 20 {
			t = t[:20] + "…"
		}
		return "#text(" + strconv.Quote(t) + ")"
	}
	if id := n.ID(); id != "" {
		return "<" + n.Tag + " id=" + strconv.Quote(id) + ">"
	}
	return "<" + n.Tag + " #" + strconv.FormatUint(n.Serial, 10) + ">"
}

// IsFormField reports whether the node is a form field whose value/checked
// state the §5.3 form filter cares about.
func (n *Node) IsFormField() bool {
	switch n.Tag {
	case "input", "textarea", "select":
		return true
	default:
		return false
	}
}

// AppendChild appends child (detaching it from any previous parent) and
// returns its index in n.Kids.
func (n *Node) AppendChild(child *Node) int {
	return n.InsertBefore(child, nil)
}

// InsertBefore inserts child before ref (or appends when ref is nil) and
// returns the insertion index. Inserting a node into an in-document parent
// registers the whole subtree with the document.
func (n *Node) InsertBefore(child, ref *Node) int {
	if child == n {
		panic("dom: cannot insert node into itself")
	}
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	idx := len(n.Kids)
	if ref != nil {
		for i, k := range n.Kids {
			if k == ref {
				idx = i
				break
			}
		}
	}
	n.Kids = append(n.Kids, nil)
	copy(n.Kids[idx+1:], n.Kids[idx:])
	n.Kids[idx] = child
	child.Parent = n
	if n.InDoc && !child.InDoc {
		n.Doc.registerSubtree(child)
	}
	return idx
}

// RemoveChild detaches child from n, unregistering its subtree when it was
// in the document. It returns the index child occupied, or -1 when child
// was not a child of n.
func (n *Node) RemoveChild(child *Node) int {
	for i, k := range n.Kids {
		if k == child {
			n.Kids = append(n.Kids[:i:i], n.Kids[i+1:]...)
			child.Parent = nil
			if child.InDoc {
				n.Doc.unregisterSubtree(child)
			}
			return i
		}
	}
	return -1
}

// Index returns child's position in n.Kids, or -1.
func (n *Node) Index(child *Node) int {
	for i, k := range n.Kids {
		if k == child {
			return i
		}
	}
	return -1
}

// AddListener registers a listener for the event type and returns it.
// HandlerID 0 (the on-event slot) replaces any previous slot listener.
func (n *Node) AddListener(event string, l *Listener) {
	if n.listeners == nil {
		n.listeners = make(map[string][]*Listener)
	}
	if l.HandlerID == 0 {
		for _, old := range n.listeners[event] {
			if old.HandlerID == 0 {
				old.Fn = l.Fn
				old.Capture = l.Capture
				return
			}
		}
	}
	n.listeners[event] = append(n.listeners[event], l)
}

// RemoveListener removes the listener with the given handler identity.
// It reports whether a listener was removed.
func (n *Node) RemoveListener(event string, handlerID uint64) bool {
	ls := n.listeners[event]
	for i, l := range ls {
		if l.HandlerID == handlerID {
			n.listeners[event] = append(ls[:i:i], ls[i+1:]...)
			return true
		}
	}
	return false
}

// Listeners returns the listeners for the event type in registration order
// (shared slice; do not mutate).
func (n *Node) Listeners(event string) []*Listener { return n.listeners[event] }

// ListenerEvents returns the event types with at least one listener,
// sorted, for deterministic automatic exploration.
func (n *Node) ListenerEvents() []string {
	out := make([]string, 0, len(n.listeners))
	for ev, ls := range n.listeners {
		if len(ls) > 0 {
			out = append(out, ev)
		}
	}
	sort.Strings(out)
	return out
}

// Path returns the ancestor chain from the document root down to n,
// inclusive — the event propagation path of Appendix A.
func (n *Node) Path() []*Node {
	var rev []*Node
	for m := n; m != nil; m = m.Parent {
		rev = append(rev, m)
	}
	out := make([]*Node, len(rev))
	for i, m := range rev {
		out[len(rev)-1-i] = m
	}
	return out
}

func (n *Node) walk(f func(*Node)) {
	f(n)
	for _, k := range n.Kids {
		k.walk(f)
	}
}

// Walk applies f to n and every descendant in tree order.
func (n *Node) Walk(f func(*Node)) { n.walk(f) }

// OuterHTML renders the subtree back to HTML (for debugging and reports).
func (n *Node) OuterHTML() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	switch n.Tag {
	case "#text":
		b.WriteString(n.Text)
	case "#document":
		for _, k := range n.Kids {
			k.render(b)
		}
	default:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%q", k, n.Attrs[k])
		}
		b.WriteByte('>')
		for _, k := range n.Kids {
			k.render(b)
		}
		fmt.Fprintf(b, "</%s>", n.Tag)
	}
}
