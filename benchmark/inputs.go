package main

// Frozen inputs. The benchmark owns everything it feeds the program that
// a later change to the library could otherwise move under it: the
// cyclic overlay, the rule text, the mutation and request builders. The
// base generators it does call (KnowledgeBase, MusicDB, RandomGEDSet,
// the paper's rules) are covered by the input fingerprint instead.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"

	"gedlib"
	"gedlib/serve"
	"gedlib/workload"
)

// ruleSeed seeds the random rules of apply_stream. The rule set is part
// of the workload's definition, so it does not follow -seed: only the
// data and the request streams do.
const ruleSeed = 7

// zipfSkew is the exponent of every hot-key choice (tenants, nodes,
// pages).
const zipfSkew = 1.2

// cyclicRulesDSL is the rule text of validate_cyclic on top of φ1–φ4: a
// triangle and a diamond over `knows`, neither with a constant literal,
// so nothing pushes down and the matcher enumerates every match.
const cyclicRulesDSL = `
ged tri on (a:person)-[knows]->(b:person), (b)-[knows]->(c:person), (c)-[knows]->(a) {
  then a.tier = b.tier
}
ged diamond on (a:person)-[knows]->(b:person), (a)-[knows]->(c:person), (b)-[knows]->(d:person), (c)-[knows]->(d) {
  then a.tier = d.tier
}
`

// kbRulesDSL renders φ1–φ4 in the rule DSL.
func kbRulesDSL() string {
	return gedlib.FormatRules(gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(), workload.PaperPhi3(), workload.PaperPhi4(),
	})
}

// streamRulesDSL is Σ of apply_stream: φ1–φ4 plus 60 random rules over
// the knowledge base's labels and the `e` edges the overlay adds.
func streamRulesDSL() string {
	labels := []gedlib.Label{"person", "product", "city", "country", "class", "species"}
	attrs := []gedlib.Attr{"type", "name"}
	return kbRulesDSL() + gedlib.FormatRules(workload.RandomGEDSet(ruleSeed, 60, 3, labels, attrs, 4))
}

// keyRulesDSL renders the recursive keys ψ1–ψ3.
func keyRulesDSL() string { return gedlib.FormatRules(workload.PaperKeys()) }

// triangleOffsets places the knows-triangles of denseKB: person i closes
// one triangle with persons i+a and i+a+b for each pair.
var triangleOffsets = [][2]int{{1, 2}, {3, 7}, {5, 11}, {13, 17}}

// denseKB is the host graph of validate_cyclic: a knowledge base whose
// persons each close `triangles` knows-triangles and carry a tier, with
// one person in 200 deviating. The overlay is a circulant, the same for
// every seed, so that the match count (the work of an op) depends on the
// seed only through where the deviants sit and what the base generator
// planted; random partners made it swing by a tenth between seeds.
func denseKB(seed int64, scale, triangles int) *gedlib.Graph {
	g, _ := workload.KnowledgeBase(seed, scale, 0.1)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	people := append([]gedlib.NodeID(nil), g.NodesWithLabel("person")...)
	n := len(people)
	for _, p := range people {
		g.SetAttr(p, "tier", gedlib.String("t0"))
	}
	first := rng.Intn(n)
	for k := 0; k < max(n/200, 1); k++ {
		g.SetAttr(people[(first+200*k)%n], "tier", gedlib.String("t1"))
	}
	for i, p := range people {
		for _, o := range triangleOffsets[:triangles] {
			q, r := people[(i+o[0])%n], people[(i+o[0]+o[1])%n]
			g.AddEdge(p, "knows", q)
			g.AddEdge(q, "knows", r)
			g.AddEdge(r, "knows", p)
		}
	}
	return g
}

// streamKB is the host graph of apply_stream: a knowledge base plus a
// ring of `e` edges over its typed persons and one to a product each, so
// the random rules have matches from the first op on and every hot node
// has the same neighbourhood whatever the seed.
func streamKB(seed int64, scale int) *gedlib.Graph {
	g, _ := workload.KnowledgeBase(seed, scale, 0.1)
	devs, products := devsOf(g), g.NodesWithLabel("product")
	for i, d := range devs {
		g.AddEdge(d, "e", devs[(i+1)%len(devs)])
		g.AddEdge(d, "e", products[i%len(products)])
	}
	return g
}

// musicPool returns the pool of chase_keys: the first n catalogs the
// generator makes from generator seed `seed` upward in which exactly
// one artist in five was duplicated and the album count is within a
// hundredth of its mean (two an artist, one more a duplicate). The
// chase's work grows with the duplicates and with the square of the
// albums (ψ2 pairs them all); leaving both to the generator's coins made
// an op's time swing by a twentieth between seeds.
func musicPool(seed int64, artists, n int) (pool []*gedlib.Graph, dups int) {
	dups = artists / 5
	albums := 2*artists + dups
	slack := max(albums/100, 1)
	for s := seed; len(pool) < n; s++ {
		g, stats := workload.MusicDB(s, artists, 0.2)
		if stats.DupPairs == dups && stats.Albums >= albums-slack && stats.Albums <= albums+slack {
			pool = append(pool, g)
		}
	}
	return pool, dups
}

// devsOf lists the typed persons of a knowledge base — the creators φ1
// speaks about, and the hot nodes of every workload — in id order.
func devsOf(g *gedlib.Graph) []gedlib.NodeID {
	var out []gedlib.NodeID
	for _, p := range g.NodesWithLabel("person") {
		if _, ok := g.Attr(p, "type"); ok {
			out = append(out, p)
		}
	}
	return out
}

// personType draws the value a set_attr writes: mostly the one φ1
// wants, so violations keep appearing and being repaired and the
// violation set stays the same size over a run.
func personType(rng *rand.Rand) string {
	if rng.Float64() < 0.15 {
		return "psychologist"
	}
	return "programmer"
}

// ---- apply_stream mutations ----

// mutation is one public Graph call of apply_stream, kept as data so a
// traced run can replay it on the twin graph.
type mutation struct {
	kind byte // 'n' new creator, product and their two edges; 's' set type; 'c' add create edge
	a, b gedlib.NodeID
	typ  string
	seq  int
}

// calls is how many Graph mutations m performs.
func (m mutation) calls() int {
	if m.kind == 'n' {
		return 4
	}
	return 1
}

func (m mutation) apply(g *gedlib.Graph) {
	switch m.kind {
	case 'n':
		p := g.AddNodeAttrs("person", map[gedlib.Attr]gedlib.Value{
			"name": gedlib.String(fmt.Sprintf("newdev%d", m.seq)), "type": gedlib.String("programmer")})
		q := g.AddNodeAttrs("product", map[gedlib.Attr]gedlib.Value{
			"name": gedlib.String(fmt.Sprintf("newgame%d", m.seq)), "type": gedlib.String("video game")})
		g.AddEdge(p, "create", q)
		g.AddEdge(p, "e", q)
	case 's':
		g.SetAttr(m.a, "type", gedlib.String(m.typ))
	case 'c':
		g.AddEdge(m.a, "create", m.b)
	}
}

// mutator builds apply_stream's ops: ten localized mutations each. A
// quarter of the calls add nodes (a creator, its product and the edges
// between them); the rest toggle the type of a Zipf-hot creator or give
// a uniformly drawn one another board game. The load is stationary by
// construction: only the toggles make or repair violations, as often
// one as the other, and no existing node's neighbourhood grows faster
// than one edge per thousand ops.
type mutator struct {
	rng    *rand.Rand
	hot    *rand.Zipf
	devs   []gedlib.NodeID
	boards []gedlib.NodeID // the products that are no video game
	seq    int
}

func newMutator(seed int64, g *gedlib.Graph) *mutator {
	rng := rand.New(rand.NewSource(seed))
	devs := devsOf(g)
	m := &mutator{rng: rng, hot: rand.NewZipf(rng, zipfSkew, 1, uint64(len(devs)-1)), devs: devs}
	for _, q := range g.NodesWithLabel("product") {
		if v, _ := g.Attr(q, "type"); v.Equal(gedlib.String("board game")) {
			m.boards = append(m.boards, q)
		}
	}
	return m
}

func (m *mutator) next() []mutation {
	var out []mutation
	for calls := 0; calls < 10; {
		r := m.rng.Float64()
		var mu mutation
		switch {
		case r < 0.2 && calls <= 6:
			m.seq++
			mu = mutation{kind: 'n', seq: m.seq}
		case r < 0.8:
			mu = mutation{kind: 's', a: m.devs[m.hot.Uint64()], typ: personType(m.rng)}
		default:
			mu = mutation{kind: 'c', a: m.devs[m.rng.Intn(len(m.devs))], b: m.boards[m.rng.Intn(len(m.boards))]}
		}
		calls += mu.calls()
		out = append(out, mu)
	}
	return out
}

// ---- serve requests ----

type reqClass byte

const (
	reqList reqClass = iota
	reqValidate
	reqStats
	reqMutate
)

func (c reqClass) isRead() bool { return c != reqMutate }

// request is one HTTP request of a serve workload.
type request struct {
	class  reqClass
	tenant int
	method string
	path   string // with query
	body   []byte
	// ops is a mutate request's batch, kept to feed the twin graph.
	ops []serve.Op
	// marker is a node the request adds, looked up after a restore to
	// tell whether the acknowledged write survived.
	marker string
}

// tenantInfo is what the request builders know about one tenant.
type tenantInfo struct {
	name string
	hot  []string // wire ids of the typed persons, Zipf-ranked by position
}

func nodeName(id gedlib.NodeID) string { return fmt.Sprintf("n%d", id) }

func newTenantInfo(name string, g *gedlib.Graph) tenantInfo {
	t := tenantInfo{name: name}
	for _, d := range devsOf(g) {
		t.hot = append(t.hot, nodeName(d))
	}
	return t
}

func mutateBody(ops []serve.Op) []byte {
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // ops hold only strings
	}
	return b
}

// creatorOps adds a person, a product and the create edge between them.
func creatorOps(id, typ, productType string) []serve.Op {
	p, q := id+"-p", id+"-g"
	return []serve.Op{
		{Op: "add_node", ID: p, Label: "person", Attrs: map[string]any{"name": p, "type": typ}},
		{Op: "add_node", ID: q, Label: "product", Attrs: map[string]any{"name": q, "type": productType}},
		{Op: "add_edge", Src: p, Label: "create", Dst: q},
	}
}

// readMostlyGen is one client's request stream of serve_read_mostly.
type readMostlyGen struct {
	client  int
	clients int
	rng     *rand.Rand
	tenants []tenantInfo
	tenant  *rand.Zipf
	page    *rand.Zipf
	hot     []*rand.Zipf
	seq     int
}

func newReadMostlyGen(seed int64, client, clients int, tenants []tenantInfo) *readMostlyGen {
	rng := rand.New(rand.NewSource(seed + int64(client)*7919))
	g := &readMostlyGen{client: client, clients: clients, rng: rng, tenants: tenants,
		tenant: rand.NewZipf(rng, zipfSkew, 1, uint64(len(tenants)-1)),
		page:   rand.NewZipf(rng, zipfSkew, 1, 19)}
	for _, t := range tenants {
		g.hot = append(g.hot, rand.NewZipf(rng, zipfSkew, 1, uint64(len(t.hot)-1)))
	}
	return g
}

// ownHot draws a hot node this client alone writes, so the final state
// does not depend on how the clients' writes interleave.
func (g *readMostlyGen) ownHot(t int) string {
	hot := g.tenants[t].hot
	i := int(g.hot[t].Uint64())
	i -= i % g.clients
	if i += g.client; i >= len(hot) {
		i -= g.clients
	}
	return hot[i]
}

func (g *readMostlyGen) next() request {
	t := int(g.tenant.Uint64())
	base := "/graphs/" + g.tenants[t].name
	r := g.rng.Float64()
	switch {
	case r < 0.02:
		var ops []serve.Op
		marker := ""
		if n := 1 + g.rng.Intn(3); n == 3 && g.rng.Intn(2) == 0 {
			g.seq++
			id := fmt.Sprintf("c%d-%d", g.client, g.seq)
			ops, marker = creatorOps(id, personType(g.rng), "video game"), id+"-p"
		} else {
			for i := 0; i < n; i++ {
				ops = append(ops, serve.Op{Op: "set_attr", ID: g.ownHot(t), Attr: "type", Value: personType(g.rng)})
			}
		}
		return request{class: reqMutate, tenant: t, method: "POST", path: base + "/mutate",
			body: mutateBody(ops), ops: ops, marker: marker}
	case r < 0.02+0.98*0.50:
		return request{class: reqList, tenant: t, method: "GET",
			path: fmt.Sprintf("%s/violations?limit=50&offset=%d", base, 50*g.page.Uint64())}
	case r < 0.02+0.98*0.83:
		nodes := make([]string, 1+g.rng.Intn(3))
		for i := range nodes {
			nodes[i] = g.tenants[t].hot[g.hot[t].Uint64()]
		}
		body, _ := json.Marshal(map[string]any{"nodes": nodes})
		return request{class: reqValidate, tenant: t, method: "POST", path: base + "/validate", body: body}
	default:
		return request{class: reqStats, tenant: t, method: "GET", path: base + "/stats"}
	}
}

// ingestGen is one client's request stream of serve_ingest: every
// request is a 128-op batch on the client's own tenant.
type ingestGen struct {
	client int
	rng    *rand.Rand
	tenant tenantInfo
	hot    *rand.Zipf
	seq    int
}

func newIngestGen(seed int64, client int, tenant tenantInfo) *ingestGen {
	rng := rand.New(rand.NewSource(seed + int64(client)*7919))
	return &ingestGen{client: client, rng: rng, tenant: tenant,
		hot: rand.NewZipf(rng, zipfSkew, 1, uint64(len(tenant.hot)-1))}
}

func (g *ingestGen) next() request {
	ops := make([]serve.Op, 0, 128)
	marker := ""
	for i := 0; i < 32; i++ {
		g.seq++
		id := fmt.Sprintf("c%d-%d", g.client, g.seq)
		typ := "programmer"
		if g.rng.Float64() < 0.1 {
			typ = "psychologist"
		}
		ops = append(ops, creatorOps(id, typ, "video game")...)
		ops = append(ops, serve.Op{Op: "set_attr", ID: g.tenant.hot[g.hot.Uint64()], Attr: "type", Value: personType(g.rng)})
		marker = id + "-p"
	}
	return request{class: reqMutate, tenant: g.client, method: "POST",
		path: "/graphs/" + g.tenant.name + "/mutate", body: mutateBody(ops), ops: ops, marker: marker}
}

// applyServeOps replays acknowledged serve ops on the benchmark's twin
// graph through the public Graph calls, returning how many it made.
func applyServeOps(g *gedlib.Graph, names map[string]gedlib.NodeID, ops []serve.Op) (int, error) {
	for i, op := range ops {
		switch op.Op {
		case "add_node":
			attrs := make(map[gedlib.Attr]gedlib.Value, len(op.Attrs))
			for a, v := range op.Attrs {
				attrs[gedlib.Attr(a)] = gedlib.String(v.(string))
			}
			names[op.ID] = g.AddNodeAttrs(gedlib.Label(op.Label), attrs)
		case "add_edge":
			src, ok1 := names[op.Src]
			dst, ok2 := names[op.Dst]
			if !ok1 || !ok2 {
				return i, fmt.Errorf("twin: add_edge %s->%s names an unknown node", op.Src, op.Dst)
			}
			g.AddEdge(src, gedlib.Label(op.Label), dst)
		case "set_attr":
			id, ok := names[op.ID]
			if !ok {
				return i, fmt.Errorf("twin: set_attr names unknown node %s", op.ID)
			}
			g.SetAttr(id, gedlib.Attr(op.Attr), gedlib.String(op.Value.(string)))
		default:
			return i, fmt.Errorf("twin: unknown op %q", op.Op)
		}
	}
	return len(ops), nil
}

// ---- fingerprint ----

// fingerprint hashes a workload's inputs as the program receives them.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) add(parts ...[]byte) {
	for _, p := range parts {
		fmt.Fprintf(f.h, "%d:", len(p))
		f.h.Write(p)
	}
}

func (f *fingerprint) addRequests(next func() request) {
	for i := 0; i < 1000; i++ {
		r := next()
		f.add([]byte(r.method), []byte(r.path), r.body)
	}
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil))[:16] }

// pinnedFingerprints are the seed-1 input fingerprints. A run at seed 1
// that computes another value is measuring a different load and fails
// with "inputs drifted" and names the value it computed; re-pin only in
// a change whose purpose is to alter the inputs. (BENCHMARK.json has a
// closed key set, so the pins live here.)
var pinnedFingerprints = map[string]string{
	wValidate:   "e197b05eb07c9d8c",
	wApply:      "02a5dacb5ccc4b5a",
	wChase:      "0cc25d69140b1e52",
	wReadMostly: "fdd9d70eb18b08ac",
	wIngest:     "4189db7a1fd9cd28",
}
