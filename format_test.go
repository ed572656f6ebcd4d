package webracer

import (
	"fmt"
	"testing"

	"webracer/internal/dom"
	"webracer/internal/mem"
	"webracer/internal/sitegen"
)

// fmtLocString and fmtNodeString are the fmt-based forms mem.Loc.String
// and dom.(*Node).String had before they were rewritten with strconv;
// the rewrites must print the same bytes.
func fmtLocString(l mem.Loc) string {
	switch l.Kind {
	case mem.Var:
		if l.Obj == 0 {
			return fmt.Sprintf("var %s", l.Name)
		}
		return fmt.Sprintf("var obj%d.%s", l.Obj, l.Name)
	case mem.Elem:
		if l.Name != "" {
			return fmt.Sprintf("elem #%s", l.Name)
		}
		return fmt.Sprintf("elem node%d", l.Obj)
	case mem.Handler:
		return fmt.Sprintf("handler (#%d, %s, h%d)", l.Obj, l.Name, l.Extra)
	default:
		return fmt.Sprintf("loc(%v)", l.Kind)
	}
}

func fmtNodeString(n *dom.Node) string {
	if n == nil {
		return "<nil>"
	}
	if n.Tag == "#text" {
		t := n.Text
		if len(t) > 20 {
			t = t[:20] + "…"
		}
		return fmt.Sprintf("#text(%q)", t)
	}
	if id := n.ID(); id != "" {
		return fmt.Sprintf("<%s id=%q>", n.Tag, id)
	}
	return fmt.Sprintf("<%s #%d>", n.Tag, n.Serial)
}

// TestFormatLocAndNodeStrings checks Loc.String and Node.String against
// their fmt forms over every location accessed and every node in the
// final documents of the 100-page corpus, the sched, fault and stress
// pages and the paper figures, plus edge cases the corpus lacks: extreme
// serials, empty and quoted names, unknown kinds, and text cut inside a
// multi-byte rune.
func TestFormatLocAndNodeStrings(t *testing.T) {
	locs := []mem.Loc{
		{}, mem.VarLoc(0, ""), mem.VarLoc(^uint64(0), `a"b`), mem.ElemLoc(0),
		mem.ElemIDLoc(3, "é\x00"), mem.HandlerLoc(1<<63, "", ^uint64(0)),
		{Kind: 7, Obj: 1, Name: "x"}, {Kind: 255},
	}
	doc := dom.NewDocument("about:blank", &dom.Serials{})
	nodes := []*dom.Node{nil, doc.Root, doc.NewText(""), doc.NewText("héllo wörld, a long text node"),
		doc.NewText("0123456789012345678é"), doc.NewText("quote \" and \\ and \t"), doc.NewNode("div")}
	withID := doc.NewNode("input")
	withID.Attrs["id"] = "a\"b\x01é"
	wide := doc.NewNode("span")
	wide.Serial = ^uint64(0)
	nodes = append(nodes, withID, wide)

	cfg := DefaultConfig(1)
	cfg.RecordTrace = true
	var sites []string
	collect := func(name string, res *Result) {
		sites = append(sites, name)
		for _, a := range res.Browser.Trace() {
			locs = append(locs, a.Loc)
		}
		for _, w := range res.Browser.Windows() {
			var walk func(n *dom.Node)
			walk = func(n *dom.Node) {
				nodes = append(nodes, n)
				for _, k := range n.Kids {
					walk(k)
				}
			}
			walk(w.Doc.Root)
		}
	}
	for i := 0; i < 100; i++ {
		collect(fmt.Sprint("corpus-", i), RunConfig(sitegen.Generate(sitegen.SpecFor(1, i)), cfg))
	}
	for i := 0; i < 4; i++ {
		collect(fmt.Sprint("sched-", i), RunConfig(sitegen.Generate(sitegen.SchedSpec(i)), cfg))
		collect(fmt.Sprint("fault-", i), RunConfig(sitegen.Generate(sitegen.FaultSpec(i)), cfg))
	}
	collect("stress-0", RunConfig(sitegen.Generate(sitegen.StressSpec(0)), cfg))
	collect("fig1", RunConfig(sitegen.Fig1(), cfg))
	collect("fig4", RunConfig(sitegen.Fig4(), cfg))

	for _, l := range locs {
		if got, want := l.String(), fmtLocString(l); got != want {
			t.Fatalf("Loc%+v.String() = %q, fmt form %q", l, got, want)
		}
	}
	for _, n := range nodes {
		if got, want := n.String(), fmtNodeString(n); got != want {
			t.Fatalf("Node.String() = %q, fmt form %q", got, want)
		}
	}
	t.Logf("%d locations, %d nodes over %d pages", len(locs), len(nodes), len(sites))
}
