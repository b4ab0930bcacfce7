package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"gedlib/internal/gen"
	"gedlib/internal/graph"
)

// TestImagePinned: ImageOf of seeded generator graphs hashes to fixed
// values. The image is what checkpoint format 2 stores section by
// section, so a change to node storage or to the export must leave these
// bytes where they are.
func TestImagePinned(t *testing.T) {
	kb, _ := gen.KnowledgeBase(7, 300, 0.1)
	music, _ := gen.MusicDB(7, 300, 0.2)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"KnowledgeBase", kb, "fceaf54c88f282c7717e14425e2f5efe0cdede223270a68170feb94eb0c6772d"},
		{"MusicDB", music, "bf28d37841fe652681125a03a8def6e2a41e950170178e2b8451248d457bf804"},
	} {
		if got := imageHash(t, graph.ImageOf(c.g)); got != c.want {
			t.Errorf("%s: ImageOf hashes to %s, want %s", c.name, got, c.want)
		}
	}
}

func imageHash(t *testing.T, img *graph.Image) string {
	t.Helper()
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotImagePinned: the snapshot exporter writes the pinned bytes
// too — from a frozen snapshot, and from a snapshot lineage that grew
// the same graph by Apply in chunks, attribute overwrites included, so
// its symbols were interned in another order than Freeze's. The lineage
// graph has its own mutation count, so its image is hashed at the
// original's version.
func TestSnapshotImagePinned(t *testing.T) {
	kb, _ := gen.KnowledgeBase(7, 300, 0.1)
	music, _ := gen.MusicDB(7, 300, 0.2)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"KnowledgeBase", kb, "fceaf54c88f282c7717e14425e2f5efe0cdede223270a68170feb94eb0c6772d"},
		{"MusicDB", music, "bf28d37841fe652681125a03a8def6e2a41e950170178e2b8451248d457bf804"},
	} {
		if got := imageHash(t, c.g.Freeze().Image(nil)); got != c.want {
			t.Errorf("%s: Freeze().Image(nil) hashes to %s, want %s", c.name, got, c.want)
		}
		h, snap := growByApply(c.g, 37)
		img := snap.Image(nil)
		if !reflect.DeepEqual(img, graph.ImageOf(h)) {
			t.Fatalf("%s: the Apply lineage's image differs from ImageOf of its graph", c.name)
		}
		img.Version = c.g.Version()
		if got := imageHash(t, img); got != c.want {
			t.Errorf("%s: the Apply lineage's image hashes to %s, want %s", c.name, got, c.want)
		}
	}
}

// growByApply rebuilds g node by node into a fresh graph, advancing a
// snapshot of it by Apply every chunk nodes: each chunk adds its nodes
// with a placeholder value on every attribute, then the real values,
// then the edges whose endpoints now all exist, so the lineage meets
// edge labels and attribute names in another order than g's Freeze.
func growByApply(g *graph.Graph, chunk int) (*graph.Graph, *graph.Snapshot) {
	h := graph.New()
	snap := h.Freeze()
	edges := g.Edges()
	next := 0
	for lo := 0; lo < g.NumNodes(); lo += chunk {
		hi := min(lo+chunk, g.NumNodes())
		for id := graph.NodeID(lo); id < graph.NodeID(hi); id++ {
			h.AddNode(g.Label(id))
			for a := range g.Attrs(id) {
				h.SetAttr(id, a, graph.Int(-1))
			}
		}
		for id := graph.NodeID(hi - 1); id >= graph.NodeID(lo); id-- {
			for a, v := range g.Attrs(id) {
				h.SetAttr(id, a, v)
			}
		}
		for ; next < len(edges); next++ {
			e := edges[next]
			if int(e.Src) >= hi || int(e.Dst) >= hi {
				break
			}
			h.AddEdge(e.Src, e.Label, e.Dst)
		}
		snap = snap.Apply(h.DeltaSince(snap.SourceVersion()))
	}
	for _, e := range edges[next:] {
		h.AddEdge(e.Src, e.Label, e.Dst)
	}
	return h, snap.Apply(h.DeltaSince(snap.SourceVersion()))
}
