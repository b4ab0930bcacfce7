package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
		raw, err := json.Marshal(graph.ImageOf(c.g))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: ImageOf hashes to %s, want %s", c.name, got, c.want)
		}
	}
}
