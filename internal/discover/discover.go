// Package discover mines GFDs that hold on a given graph — the
// profiling counterpart of validation, and the source of the "data
// quality rules" the paper's analyses are designed to manage. The
// implication analysis is used exactly as Section 5.2 motivates: "an
// optimization strategy to get rid of redundant rules" — every candidate
// implied by the rules already kept is pruned.
//
// The search space is deliberately the practical one the paper points
// at (Section 5.3: most real patterns are tiny): single-node patterns
// per label, and single-edge patterns per (label, edge label, label)
// triple occurring in the data. Over each shape, three rule families are
// mined:
//
//   - constant rules        Q[x̄](∅ → x.A = c)
//   - variable rules        Q[x,y](∅ → x.A = y.B)   (edge shapes)
//   - conditional rules     Q[x̄](x.A = c → z.B = d)
//
// Every returned rule is verified exactly (zero violations on g) and
// carries its support (number of matches it constrains).
package discover

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gedlib/internal/chase"
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
	"gedlib/internal/reason"
)

// Options tunes the search.
type Options struct {
	// MinSupport is the minimum number of matches a rule must constrain
	// (matches satisfying its antecedent). Default 2.
	MinSupport int
	// MaxConstDomain bounds the number of distinct values an attribute
	// may take before constant/conditional rules on it are skipped.
	// Default 8.
	MaxConstDomain int
	// PruneImplied drops rules implied by rules already kept, using the
	// chase-based implication analysis. Default true (set SkipPruning to
	// disable).
	SkipPruning bool
}

func (o Options) minSupport() int {
	if o.MinSupport <= 0 {
		return 2
	}
	return o.MinSupport
}

func (o Options) maxDomain() int {
	if o.MaxConstDomain <= 0 {
		return 8
	}
	return o.MaxConstDomain
}

// Discovered is a mined rule with its support.
type Discovered struct {
	GED     *ged.GED
	Support int
}

// GFDs mines rules from g. Results are deterministic: rules are
// generated and kept in a canonical order.
func GFDs(g *graph.Graph, opt Options) []Discovered {
	out, _ := GFDsCtx(context.Background(), g, opt, 0)
	return out
}

// GFDsCtx is GFDs with cooperative cancellation: ctx is threaded into
// shape-match enumeration and into the implication chases that prune
// redundant candidates, so a cancelled context aborts the search
// mid-shape. maxRounds (<= 0 means unbounded) bounds each pruning
// chase; a candidate whose pruning chase exceeds the bound is kept —
// mining stays exact, pruning is best-effort under a resource cap. The
// rules kept before an abort are returned alongside ctx's error.
func GFDsCtx(ctx context.Context, g *graph.Graph, opt Options, maxRounds int) ([]Discovered, error) {
	return GFDsOnCtx(ctx, g, g.Freeze(), opt, maxRounds)
}

// GFDsOnCtx is GFDsCtx with the snapshot supplied by the caller: snap
// is a snapshot of g (the Engine facade passes its cached one), built
// once and shared across every shape enumeration and every exact
// verification, while attribute statistics are still gathered from g's
// native tuples.
func GFDsOnCtx(ctx context.Context, g *graph.Graph, snap *graph.Snapshot, opt Options, maxRounds int) ([]Discovered, error) {
	var out []Discovered
	var ctxErr error
	keep := func(d Discovered) {
		if ctxErr != nil || ctx.Err() != nil {
			return
		}
		if !opt.SkipPruning {
			var kept ged.Set
			for _, k := range out {
				kept = append(kept, k.GED)
			}
			if len(kept) > 0 {
				impl, err := reason.ImpliesCtx(ctx, kept, d.GED, maxRounds)
				switch {
				case errors.Is(err, chase.ErrDepthExceeded):
					// Implication unknown within the bound: keep the
					// (exactly verified) rule rather than guess.
				case err != nil:
					ctxErr = err
					return
				case impl.Implied:
					return
				}
			}
		}
		out = append(out, d)
	}

	for _, sh := range shapes(ctx, g, snap) {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		mineShape(ctx, g, snap, sh, opt, keep)
		if ctxErr != nil {
			return out, ctxErr
		}
	}
	return out, ctx.Err()
}

// shape is a mining target: a tiny pattern plus its matches.
type shape struct {
	name    string
	pattern *pattern.Pattern
	matches []pattern.Match
}

// shapes enumerates single-node and single-edge shapes present in g,
// collecting their matches over the shared snapshot and aborting match
// collection when ctx is cancelled.
func shapes(ctx context.Context, g *graph.Graph, snap *graph.Snapshot) []shape {
	var out []shape
	stop := func() bool { return ctx.Err() != nil }
	collect := func(p *pattern.Pattern) []pattern.Match {
		var ms []pattern.Match
		pattern.ForEachMatchCancel(p, snap, stop, func(m pattern.Match) bool {
			ms = append(ms, m.Clone())
			return ctx.Err() == nil
		})
		return ms
	}
	// Node shapes per concrete label.
	labels := map[graph.Label]bool{}
	for _, id := range g.Nodes() {
		labels[g.Label(id)] = true
	}
	var labelList []graph.Label
	for l := range labels {
		labelList = append(labelList, l)
	}
	sort.Slice(labelList, func(i, j int) bool { return labelList[i] < labelList[j] })
	for _, l := range labelList {
		if l == graph.Wildcard {
			continue
		}
		p := pattern.New()
		p.AddVar("x", l)
		out = append(out, shape{
			name:    fmt.Sprintf("(%s)", l),
			pattern: p,
			matches: collect(p),
		})
	}
	// Edge shapes per (srcLabel, edgeLabel, dstLabel) triple.
	type triple struct {
		s, e, d graph.Label
	}
	triples := map[triple]bool{}
	for _, e := range g.Edges() {
		triples[triple{g.Label(e.Src), e.Label, g.Label(e.Dst)}] = true
	}
	var tripleList []triple
	for t := range triples {
		tripleList = append(tripleList, t)
	}
	sort.Slice(tripleList, func(i, j int) bool {
		a, b := tripleList[i], tripleList[j]
		return fmt.Sprint(a) < fmt.Sprint(b)
	})
	for _, t := range tripleList {
		if t.s == graph.Wildcard || t.d == graph.Wildcard {
			continue
		}
		p := pattern.New()
		p.AddVar("x", t.s).AddVar("y", t.d)
		p.AddEdge("x", t.e, "y")
		out = append(out, shape{
			name:    fmt.Sprintf("(%s)-[%s]->(%s)", t.s, t.e, t.d),
			pattern: p,
			matches: collect(p),
		})
	}
	return out
}

// mineShape emits the rules of one shape through keep, abandoning the
// shape as soon as ctx is cancelled. Attribute statistics come from g's
// native tuples; exact verification matches over the shared snapshot.
func mineShape(ctx context.Context, g *graph.Graph, snap *graph.Snapshot, sh shape, opt Options, keep func(Discovered)) {
	if len(sh.matches) < opt.minSupport() {
		return
	}
	vars := sh.pattern.Vars()

	// Collect, per variable, the attributes and their value sets.
	type attrStat struct {
		values  map[graph.Value]int
		present int
	}
	stats := make(map[pattern.Var]map[graph.Attr]*attrStat)
	for _, v := range vars {
		stats[v] = map[graph.Attr]*attrStat{}
	}
	for _, m := range sh.matches {
		for _, v := range vars {
			for a, val := range g.Attrs(m[v]) {
				st := stats[v][a]
				if st == nil {
					st = &attrStat{values: map[graph.Value]int{}}
					stats[v][a] = st
				}
				st.values[val]++
				st.present++
			}
		}
	}
	sortedAttrs := func(v pattern.Var) []graph.Attr {
		var as []graph.Attr
		for a := range stats[v] {
			as = append(as, a)
		}
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		return as
	}

	n := len(sh.matches)

	// Constant rules: x.A = c in every match.
	for _, v := range vars {
		for _, a := range sortedAttrs(v) {
			if ctx.Err() != nil {
				return
			}
			st := stats[v][a]
			if st.present != n || len(st.values) != 1 {
				continue
			}
			var c graph.Value
			for val := range st.values {
				c = val
			}
			rule := ged.New(fmt.Sprintf("const:%s.%s@%s", v, a, sh.name),
				sh.pattern, nil, []ged.Literal{ged.ConstLit(v, a, c)})
			emitVerified(ctx, snap, rule, n, keep)
		}
	}

	// Variable rules on edge shapes: x.A = y.B in every match.
	if len(vars) == 2 {
		x, y := vars[0], vars[1]
		for _, a := range sortedAttrs(x) {
			for _, b := range sortedAttrs(y) {
				if ctx.Err() != nil {
					return
				}
				holds := 0
				for _, m := range sh.matches {
					va, ok1 := g.Attr(m[x], a)
					vb, ok2 := g.Attr(m[y], b)
					if ok1 && ok2 && va.Equal(vb) {
						holds++
					}
				}
				if holds != n {
					continue
				}
				rule := ged.New(fmt.Sprintf("var:%s.%s=%s.%s@%s", x, a, y, b, sh.name),
					sh.pattern, nil, []ged.Literal{ged.VarLit(x, a, y, b)})
				emitVerified(ctx, snap, rule, n, keep)
			}
		}
	}

	// Conditional rules: (v.A = c) → (w.B = d), with small domains.
	for _, v := range vars {
		for _, a := range sortedAttrs(v) {
			if ctx.Err() != nil {
				return
			}
			st := stats[v][a]
			if len(st.values) > opt.maxDomain() {
				continue
			}
			var cvals []graph.Value
			for val := range st.values {
				cvals = append(cvals, val)
			}
			sort.Slice(cvals, func(i, j int) bool { return cvals[i].Less(cvals[j]) })
			for _, c := range cvals {
				// Matches satisfying the antecedent.
				var sel []pattern.Match
				for _, m := range sh.matches {
					if val, ok := g.Attr(m[v], a); ok && val.Equal(c) {
						sel = append(sel, m)
					}
				}
				if len(sel) < opt.minSupport() {
					continue
				}
				for _, w := range vars {
					for _, b := range sortedAttrs(w) {
						if ctx.Err() != nil {
							return
						}
						if w == v && b == a {
							continue
						}
						// A single consequent value across sel?
						var d *graph.Value
						uniform := true
						for _, m := range sel {
							val, ok := g.Attr(m[w], b)
							if !ok {
								uniform = false
								break
							}
							if d == nil {
								vv := val
								d = &vv
							} else if !d.Equal(val) {
								uniform = false
								break
							}
						}
						if !uniform || d == nil {
							continue
						}
						rule := ged.New(
							fmt.Sprintf("cond:%s.%s=%s->%s.%s@%s", v, a, c, w, b, sh.name),
							sh.pattern,
							[]ged.Literal{ged.ConstLit(v, a, c)},
							[]ged.Literal{ged.ConstLit(w, b, *d)})
						emitVerified(ctx, snap, rule, len(sel), keep)
					}
				}
			}
		}
	}
}

// emitVerified double-checks the rule exactly before keeping it,
// reusing the shared snapshot instead of re-freezing per candidate; the
// verification itself honors ctx, so cancellation cannot strand a
// full-graph validation.
func emitVerified(ctx context.Context, snap *graph.Snapshot, rule *ged.GED, support int, keep func(Discovered)) {
	vs, err := reason.NewValidatorOn(snap, ged.Set{rule}).RunCtx(ctx, 1)
	if err != nil || len(vs) != 0 {
		return // should not happen; mining is exact, but stay safe
	}
	keep(Discovered{GED: rule, Support: support})
}
