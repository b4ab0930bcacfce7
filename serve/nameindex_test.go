package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"gedlib"
)

// ackedName is a wire id whose add_node a leader flush acknowledged at
// version.
type ackedName struct {
	name    string
	version uint64
}

// renderedView is a view and the /violations body it rendered when first
// read.
type renderedView struct {
	view *View
	body []byte
}

func violationsBody(v *View) []byte {
	rec := httptest.NewRecorder()
	writeViolationPage(rec, v, len(v.Violations), v.Violations)
	return rec.Body.Bytes()
}

// checkViewNames checks a view against the acknowledged names: one acked
// at or before the view's version resolves to a node of the view's
// snapshot that renders back to it; one acked after it does not resolve.
func checkViewNames(v *View, acked []ackedName) error {
	for _, a := range acked {
		id, ok := v.Names.Resolve(a.name)
		if a.version > v.Version {
			if ok {
				return fmt.Errorf("view at version %d resolves %q, added at version %d", v.Version, a.name, a.version)
			}
			continue
		}
		if !ok || int(id) >= v.Snap.NumNodes() || v.Names.NameOf(id) != a.name {
			return fmt.Errorf("view at version %d: %q (added at %d) resolves to %d/%v of %d nodes",
				v.Version, a.name, a.version, id, ok, v.Snap.NumNodes())
		}
	}
	return nil
}

// nameDump is the whole wire-id mapping of a view: the name of every
// node, checked to resolve back to it.
func nameDump(t *testing.T, v *View) []string {
	t.Helper()
	out := make([]string, v.Snap.NumNodes())
	for i := range out {
		out[i] = v.Names.NameOf(gedlib.NodeID(i))
		if out[i][0] == '#' {
			continue
		}
		if id, ok := v.Names.Resolve(out[i]); !ok || int(id) != i {
			t.Fatalf("%q renders node %d but resolves to %d/%v", out[i], i, id, ok)
		}
	}
	return out
}

// TestNameIndexConcurrent: the shared name index under a seeded write
// stream, with readers on the leader and on a follower resolving and
// rendering against the views they hold (run under -race in CI). A view
// never resolves a name added after it, an old view's /violations body
// does not change as later flushes add names, and restore and promotion
// rebuild the same table.
func TestNameIndexConcurrent(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	leader, lent := newTestEntry(t, Config{MaxDelay: time.Millisecond, DataDir: dir})
	fol, err := NewCatalog(Config{DataDir: dir, FollowPoll: time.Millisecond, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	if err := fol.Follow(ctx); err != nil {
		t.Fatal(err)
	}
	fent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		acked []ackedName
		done  = make(chan struct{})
		wg    sync.WaitGroup
		errc  = make(chan error, 8)
	)
	ackedNow := func() []ackedName {
		mu.Lock()
		defer mu.Unlock()
		return acked[:len(acked):len(acked)]
	}
	const rounds = 40
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(42))
		for r := 0; r < rounds; r++ {
			var ops []Op
			var names []string
			for k := 0; k < 3; k++ {
				p, g := fmt.Sprintf("p%d-%d", r, k), fmt.Sprintf("g%d-%d", r, k)
				typ := []string{"programmer", "artist"}[rng.Intn(2)]
				ops = append(ops,
					Op{Op: "add_node", ID: p, Label: "person", Attrs: map[string]any{"type": typ}},
					Op{Op: "add_node", ID: g, Label: "product", Attrs: map[string]any{"type": "video game"}},
					Op{Op: "add_edge", Src: p, Label: "create", Dst: g})
				names = append(names, p, g)
			}
			if r > 0 {
				p := fmt.Sprintf("p%d-%d", rng.Intn(r), rng.Intn(3))
				ops = append(ops, Op{Op: "set_attr", ID: p, Attr: "type", Value: "programmer"})
			}
			res, err := lent.Mutate(ctx, ops)
			if err != nil || res.Applied != len(ops) {
				errc <- fmt.Errorf("round %d: %v %v", r, err, res.OpErrors)
				return
			}
			mu.Lock()
			for _, n := range names {
				acked = append(acked, ackedName{n, res.Version})
			}
			mu.Unlock()
		}
	}()
	var keptMu sync.Mutex
	var kept []renderedView
	for i, ent := range []*GraphEntry{lent, fent, lent, fent} {
		wg.Add(1)
		go func(i int, ent *GraphEntry) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-done:
					return
				default:
				}
				// Names acked before the view is loaded must resolve in it.
				all := ackedNow()
				v := ent.CurrentView()
				sample := all
				if len(all) > 12 {
					sample = make([]ackedName, 12)
					for j := range sample {
						sample[j] = all[rng.Intn(len(all))]
					}
				}
				if err := checkViewNames(v, sample); err != nil {
					errc <- err
					return
				}
				if rng.Intn(4) == 0 {
					keptMu.Lock()
					kept = append(kept, renderedView{v, violationsBody(v)})
					keptMu.Unlock()
				}
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
		}(i, ent)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	all := ackedNow()
	if len(all) != 6*rounds {
		t.Fatalf("%d names acked, want %d", len(all), 6*rounds)
	}
	if len(kept) == 0 {
		t.Fatal("readers kept no views")
	}
	// Every flush since has added names; the old views read as they did.
	for _, k := range kept {
		if err := checkViewNames(k.view, all); err != nil {
			t.Fatal(err)
		}
		if got := violationsBody(k.view); !bytes.Equal(got, k.body) {
			t.Fatalf("view at version %d renders\n%s\nafter later flushes, first\n%s", k.view.Version, got, k.body)
		}
	}

	want := nameDump(t, lent.CurrentView())
	final := lent.CurrentView().Version
	deadline := time.Now().Add(10 * time.Second)
	for fent.CurrentView().Version < final {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, leader at %d", fent.CurrentView().Version, final)
		}
		time.Sleep(time.Millisecond)
	}
	if got := nameDump(t, fent.CurrentView()); !slices.Equal(got, want) {
		t.Fatalf("follower table differs from the leader's:\n%v\n%v", got, want)
	}

	// Promotion re-recovers the replica; a restore reads the checkpoint
	// the promoted leader leaves on close. Both rebuild the same table.
	leader.Close()
	if _, err := fol.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	pent, err := fol.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := nameDump(t, pent.CurrentView()); !slices.Equal(got, want) {
		t.Fatalf("promoted table differs from the leader's:\n%v\n%v", got, want)
	}
	fol.Close()
	rc, err := NewCatalog(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Restore(ctx); err != nil {
		t.Fatal(err)
	}
	rent, err := rc.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := nameDump(t, rent.CurrentView()); !slices.Equal(got, want) {
		t.Fatalf("restored table differs from the leader's:\n%v\n%v", got, want)
	}
	res, err := rent.Mutate(ctx, []Op{{Op: "add_node", ID: "p0-0", Label: "person"}})
	if err != nil || res.Applied != 0 || len(res.OpErrors) != 1 {
		t.Fatalf("re-sent add_node after restore: applied %d, errors %v, err %v; want a duplicate-id rejection",
			res.Applied, res.OpErrors, err)
	}
}
