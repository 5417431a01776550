// The robot example of §2.2: a linear path over tuple-structured types.
// Builds the Figure 1 extension, prints it, evaluates Query 1 ("find the
// robots which use a tool manufactured in Utopia") through each of the
// four extensions, and demonstrates that updates keep the answer fresh.
package main

import (
	"context"
	"fmt"
	"log"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/paperdb"
	"asr/internal/storage"
)

func main() {
	ctx := context.Background()
	r := paperdb.BuildRobots()
	fmt.Println("schema (§2.2):")
	for _, t := range r.Schema.Types() {
		if t.Kind() != gom.AtomicType {
			fmt.Println("  " + t.Definition())
		}
	}

	fmt.Println("\nextension (Figure 1):")
	for _, id := range []gom.OID{r.R2D2, r.ArmR2D2, r.Welder, r.RobClone, r.X4D5, r.ArmX4D5, r.Gripper, r.Robi, r.ArmRobi} {
		o, _ := r.Base.Get(id)
		fmt.Println("  " + o.String())
	}

	fmt.Printf("\npath expression: %s (linear: %v, arity %d)\n",
		r.Path, r.Path.IsLinear(), r.Path.Arity())

	// Query 1 through every extension; for the whole path all four are
	// usable (§5.3) and must agree.
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	var canonical *asr.Index
	for _, ext := range asr.Extensions {
		ix, err := asr.Build(r.Base, r.Path, ext, asr.BinaryDecomposition(r.Path.Arity()-1), pool)
		if err != nil {
			log.Fatal(err)
		}
		if ext == asr.Canonical {
			canonical = ix
			r.Base.AddObserver(asr.NewMaintainer(ix))
		}
		robots, err := ix.Query(ctx, false, 0, r.Path.Len(), gom.String("Utopia"))
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, id := range asr.OIDsOf(robots) {
			o, _ := r.Base.Get(id)
			nm, _ := o.Attr("Name")
			names = append(names, gom.ValueString(nm))
		}
		fmt.Printf("Query 1 via %-5s extension: %v\n", ext, names)
	}

	// Robi's gripper is swapped for the welder; the canonical index
	// follows incrementally.
	fmt.Println("\nswapping Robi's tool to the welder...")
	r.Base.MustSetAttr(r.ArmRobi, "MountedTool", gom.Ref(r.Welder))
	robots, err := canonical.Query(ctx, false, 0, r.Path.Len(), gom.String("Utopia"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Query 1 still finds %d robots (all tools come from RobClone)\n", len(robots))

	// A new manufacturer outside Utopia takes over the gripper.
	acme := r.Base.MustNew(r.Schema.MustLookup("MANUFACTURER"))
	r.Base.MustSetAttr(acme.ID(), "Name", gom.String("Acme"))
	r.Base.MustSetAttr(acme.ID(), "Location", gom.String("Elsewhere"))
	r.Base.MustSetAttr(r.Gripper, "ManufacturedBy", gom.Ref(acme.ID()))

	robots, _ = canonical.Query(ctx, false, 0, r.Path.Len(), gom.String("Utopia"))
	fmt.Printf("after the gripper moved to Acme/Elsewhere: %d robots use Utopia tools\n", len(robots))
	for _, id := range asr.OIDsOf(robots) {
		o, _ := r.Base.Get(id)
		nm, _ := o.Attr("Name")
		fmt.Printf("  %s %s\n", id, gom.ValueString(nm))
	}
}
