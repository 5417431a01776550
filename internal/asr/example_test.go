package asr_test

import (
	"context"
	"fmt"
	"log"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/storage"
)

// Example builds the paper's §2.2 scenario end to end: schema, objects,
// a canonical access support relation over the four-step path, and the
// backward Query 1.
func Example() {
	schema, _, err := gom.ParseSchema(`
		type ROBOT is [Name: STRING, Arm: ARM];
		type ARM is [MountedTool: TOOL];
		type TOOL is [ManufacturedBy: MANUFACTURER];
		type MANUFACTURER is [Location: STRING];
	`)
	if err != nil {
		log.Fatal(err)
	}
	ob := gom.NewObjectBase(schema)

	manu := ob.MustNew(schema.MustLookup("MANUFACTURER"))
	ob.MustSetAttr(manu.ID(), "Location", gom.String("Utopia"))
	tool := ob.MustNew(schema.MustLookup("TOOL"))
	ob.MustSetAttr(tool.ID(), "ManufacturedBy", gom.Ref(manu.ID()))
	arm := ob.MustNew(schema.MustLookup("ARM"))
	ob.MustSetAttr(arm.ID(), "MountedTool", gom.Ref(tool.ID()))
	robot := ob.MustNew(schema.MustLookup("ROBOT"))
	ob.MustSetAttr(robot.ID(), "Name", gom.String("R2D2"))
	ob.MustSetAttr(robot.ID(), "Arm", gom.Ref(arm.ID()))

	path := gom.MustResolvePath(schema.MustLookup("ROBOT"),
		"Arm", "MountedTool", "ManufacturedBy", "Location")
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	index, err := asr.Build(ob, path, asr.Canonical, asr.NoDecomposition(path.Arity()-1), pool)
	if err != nil {
		log.Fatal(err)
	}
	ob.AddObserver(asr.NewMaintainer(index))

	robots, err := index.Query(context.Background(), false, 0, path.Len(), gom.String("Utopia"))
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range asr.OIDsOf(robots) {
		o, _ := ob.Get(id)
		name, _ := o.Attr("Name")
		fmt.Println("robot in Utopia:", gom.ValueString(name))
	}
	// Output:
	// robot in Utopia: "R2D2"
}

// ExampleNewMaintainer shows incremental maintenance: after an update
// through the object base, the index answers the new truth without a
// rebuild.
func ExampleNewMaintainer() {
	schema, _, _ := gom.ParseSchema(`
		type CITY is [Name: STRING];
		type PERSON is [Lives: CITY];
	`)
	ob := gom.NewObjectBase(schema)
	bonn := ob.MustNew(schema.MustLookup("CITY"))
	ob.MustSetAttr(bonn.ID(), "Name", gom.String("Bonn"))
	berlin := ob.MustNew(schema.MustLookup("CITY"))
	ob.MustSetAttr(berlin.ID(), "Name", gom.String("Berlin"))
	p := ob.MustNew(schema.MustLookup("PERSON"))
	ob.MustSetAttr(p.ID(), "Lives", gom.Ref(bonn.ID()))

	path := gom.MustResolvePath(schema.MustLookup("PERSON"), "Lives", "Name")
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	index, _ := asr.Build(ob, path, asr.Full, asr.BinaryDecomposition(2), pool)
	ob.AddObserver(asr.NewMaintainer(index))

	// The person moves; the index follows.
	ob.MustSetAttr(p.ID(), "Lives", gom.Ref(berlin.ID()))

	hits, _ := index.Query(context.Background(), false, 0, 2, gom.String("Berlin"))
	fmt.Println("people in Berlin:", len(hits))
	hits, _ = index.Query(context.Background(), false, 0, 2, gom.String("Bonn"))
	fmt.Println("people in Bonn:", len(hits))
	// Output:
	// people in Berlin: 1
	// people in Bonn: 0
}
