// Quickstart: define a GOM schema, populate a few objects, build an
// access support relation over a path expression, and run forward and
// backward path queries through it.
package main

import (
	"context"
	"fmt"
	"log"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/storage"
)

func main() {
	ctx := context.Background()
	// 1. Define the schema in the paper's declaration syntax.
	schema, _, err := gom.ParseSchema(`
		type CITY     is [Name: STRING];
		type COMPANY  is [Name: STRING, SeatedIn: CITY];
		type EMPLOYEE is [Name: STRING, WorksFor: COMPANY];
	`)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Populate an object base.
	ob := gom.NewObjectBase(schema)
	city := ob.MustNew(schema.MustLookup("CITY"))
	ob.MustSetAttr(city.ID(), "Name", gom.String("Karlsruhe"))

	company := ob.MustNew(schema.MustLookup("COMPANY"))
	ob.MustSetAttr(company.ID(), "Name", gom.String("RobClone"))
	ob.MustSetAttr(company.ID(), "SeatedIn", gom.Ref(city.ID()))

	var employees []gom.OID
	for _, name := range []string{"Alfons", "Guido", "Peter"} {
		e := ob.MustNew(schema.MustLookup("EMPLOYEE"))
		ob.MustSetAttr(e.ID(), "Name", gom.String(name))
		ob.MustSetAttr(e.ID(), "WorksFor", gom.Ref(company.ID()))
		employees = append(employees, e.ID())
	}

	// 3. Declare a path expression and build an access support relation:
	//    full extension, binary decomposition, stored in dual-clustered
	//    B+ trees on simulated pages.
	path := gom.MustResolvePath(schema.MustLookup("EMPLOYEE"), "WorksFor", "SeatedIn", "Name")
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)

	// 4. Create it through a Manager, the object base's observer, which
	//    keeps it maintained under updates.
	index, err := asr.NewManager(ob, pool).CreateIndex(path, asr.Full, asr.BinaryDecomposition(path.Arity()-1))
	if err != nil {
		log.Fatal(err)
	}

	// 5. Backward query: which employees work in Karlsruhe? This is the
	//    paper's functional join — solved by index lookup instead of an
	//    exhaustive search over uni-directional references.
	anchors, err := index.Query(ctx, false, 0, path.Len(), gom.String("Karlsruhe"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("employees seated in Karlsruhe:")
	for _, id := range asr.OIDsOf(anchors) {
		o, _ := ob.Get(id)
		name, _ := o.Attr("Name")
		fmt.Printf("  %s %s\n", id, gom.ValueString(name))
	}

	// 6. Forward query: where does the first employee's company sit?
	cities, err := index.Query(ctx, true, 0, path.Len(), gom.Ref(employees[0]))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Alfons works in:", cities)

	// 7. Updates propagate into the index automatically.
	ob.MustSetAttr(city.ID(), "Name", gom.String("Munich"))
	anchors, _ = index.Query(ctx, false, 0, path.Len(), gom.String("Munich"))
	fmt.Printf("after the city was renamed, %d employees match Munich\n", len(anchors))

	fmt.Println("index layout:", index)
}
