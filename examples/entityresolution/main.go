// Entity resolution with recursively-defined keys: the album/artist
// scenario of Example 1(3). The keys are mutually recursive —
//
//	ψ₁: an album is identified by its title and the id of its artist,
//	ψ₂: an album is identified by its title and release year,
//	ψ₃: an artist is identified by name and the id of an album,
//
// so identifying one entity can only happen after identifying another.
// The chase resolves the recursion to a fixpoint: ψ₂ merges album
// duplicates, which lets ψ₃ merge their artists, which lets ψ₁ merge the
// remaining albums of those artists — a cascade no single pass finds.
//
//	go run ./examples/entityresolution
package main

import (
	"context"
	"fmt"
	"log"

	"gedlib"
	"gedlib/workload"
)

func main() {
	ctx := context.Background()
	eng := gedlib.New()

	g, stats := workload.MusicDB(99, 60, 0.35)
	fmt.Printf("catalog: %d artists, %d albums (%d duplicated pairs planted)\n",
		stats.Artists, stats.Albums, stats.DupPairs)

	keys := workload.PaperKeys()
	fmt.Println("\nkeys:")
	for _, k := range keys {
		fmt.Println(" ", k)
	}

	// Before resolution the catalog violates the keys.
	vs, err := eng.Validate(ctx, g, keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkey violations before resolution: %d\n", len(vs))

	// Chase to a fixpoint: duplicates merge.
	res, err := eng.Chase(ctx, g, keys)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Consistent() {
		panic("catalog chase must be consistent")
	}
	before := g.NumNodes()
	after := res.Coercion().Graph.NumNodes()
	fmt.Printf("chase: %d steps, %d entities -> %d entities (%d merges)\n",
		len(res.Steps), before, after, before-after)

	// The resolved catalog satisfies every key.
	resolved := res.Materialize()
	if !gedlib.Satisfies(resolved, keys) {
		panic("resolved catalog must satisfy the keys")
	}
	fmt.Println("resolved catalog satisfies ψ1–ψ3")

	// Show one merged class.
	for rep, members := range res.Eq.NodeClasses() {
		if len(members) > 1 {
			fmt.Printf("example merge: nodes %v are one %s entity\n",
				members, res.Eq.ClassLabel(rep))
			break
		}
	}
}
