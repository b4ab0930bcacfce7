// Quickstart: define a graph and a GED, validate, reason, and chase —
// entirely through the public gedlib facade.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"gedlib"
)

const rules = `
# φ1 of the paper: a video game can only be created by programmers.
ged phi1 on (x:person)-[create]->(y:product) {
  when y.type = "video game"
  then x.type = "programmer"
}

# Albums are identified by title and release year.
ged albumKey on (a:album), (b:album) {
  when a.title = b.title and a.release = b.release
  then a.id = b.id
}
`

func main() {
	ctx := context.Background()
	eng := gedlib.New()

	// 1. Parse dependencies from the DSL.
	sigma, err := gedlib.ParseRules(rules)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded rules:")
	for _, d := range sigma {
		fmt.Println(" ", d)
	}

	// 2. Build a small property graph.
	g := gedlib.NewGraph()
	dev := g.AddNodeAttrs("person", map[gedlib.Attr]gedlib.Value{
		"name": gedlib.String("Tony Gibson"),
		"type": gedlib.String("psychologist"), // the Yago3 inconsistency
	})
	game := g.AddNodeAttrs("product", map[gedlib.Attr]gedlib.Value{
		"name": gedlib.String("Ghetto Blaster"),
		"type": gedlib.String("video game"),
	})
	g.AddEdge(dev, "create", game)
	for i := 0; i < 2; i++ {
		g.AddNodeAttrs("album", map[gedlib.Attr]gedlib.Value{
			"title":   gedlib.String("Bleach"),
			"release": gedlib.Int(1989),
		})
	}

	// 3. Validate: both rules are violated.
	fmt.Println("\nviolations:")
	vs, err := eng.Validate(ctx, g, sigma)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range vs {
		fmt.Printf("  %s at %v fails %s\n", v.GED.Name, v.Match, v.Literal)
	}

	// 4. Repair the type error and let the chase merge the duplicate
	// albums (entity resolution).
	g.SetAttr(dev, "type", gedlib.String("programmer"))
	res, err := eng.Chase(ctx, g, sigma)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Consistent() {
		log.Fatal("chase failed: ", res.Eq.Conflict())
	}
	fmt.Printf("\nchase applied %d steps; %d nodes -> %d nodes\n",
		len(res.Steps), g.NumNodes(), res.Coercion().Graph.NumNodes())
	if !gedlib.Satisfies(res.Materialize(), sigma) {
		log.Fatal("chase result must satisfy Σ")
	}
	fmt.Println("quotient graph satisfies Σ")

	// 5. Static analyses: the rules are satisfiable, and a stronger key
	// follows from the album key.
	sat, err := eng.CheckSat(ctx, sigma)
	if err != nil {
		log.Fatal(err)
	}
	if !sat.Satisfiable {
		log.Fatal("Σ should be satisfiable")
	}
	stronger := gedlib.NewRule("strongerKey", sigma[1].Pattern,
		append(append([]gedlib.Literal{}, sigma[1].X...), gedlib.VarLit("a", "label", "b", "label")),
		sigma[1].Y)
	r, err := eng.Implies(ctx, sigma, stronger)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ implies %s: %v\n", stronger.Name, r.Implied)
}
