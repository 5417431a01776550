// The company example of §2.3 and §3: a path with set occurrences.
// Prints the auxiliary relations E_0..E_2, the four extensions, and the
// binary decomposition exactly as the paper's §3 tables show them, then
// evaluates Queries 2 and 3 and the paper's characteristic update ins_i.
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
	c := paperdb.BuildCompany()
	fmt.Println("extension (Figure 2):")
	fmt.Print(indent(c.Describe()))

	fmt.Printf("path: %s — n=%d steps, k=%d set occurrences, relation arity n+k+1=%d\n\n",
		c.Path, c.Path.Len(), c.Path.SetOccurrences(), c.Path.Arity())

	// The §3 auxiliary relations.
	aux, err := asr.BuildAuxiliaryRelations(c.Base, c.Path)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range aux {
		fmt.Println(a)
	}

	// The four extensions (Definitions 3.4–3.7).
	for _, ext := range asr.Extensions {
		rel, err := asr.BuildExtension(ext, "E_"+ext.String(), aux)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rel)
	}

	// The binary decomposition of the canonical extension (§3, last
	// example) — lossless per Theorem 3.9.
	can, _ := asr.BuildExtension(asr.Canonical, "E_can", aux)
	parts, err := asr.Decompose(can, asr.BinaryDecomposition(5))
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range parts {
		fmt.Println(p)
	}
	back, _ := asr.Recompose("recomposed", parts)
	fmt.Printf("recomposition lossless: %v\n\n", back.Equal(can))

	// Build a maintained index and run the §2.3 queries.
	pool := storage.NewBufferPool(storage.NewDisk(0), 0, storage.LRU)
	ix, err := asr.NewManager(c.Base, pool).CreateIndex(c.Path, asr.Full, asr.Decomposition{0, 2, 5})
	if err != nil {
		log.Fatal(err)
	}

	query2 := func() []string {
		divs, err := ix.Query(ctx, false, 0, 3, gom.String("Door"))
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, id := range asr.OIDsOf(divs) {
			o, _ := c.Base.Get(id)
			nm, _ := o.Attr("Name")
			names = append(names, gom.ValueString(nm))
		}
		return names
	}
	fmt.Println("Query 2 — divisions using a BasePart named 'Door':", query2())

	names, err := ix.Query(ctx, true, 0, 3, gom.Ref(c.DivAuto))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Query 3 — BasePart names used by division 'Auto':", names)

	// The §6 characteristic update: insert the Door part into the
	// Sausage product's part set, then hook Sausage into the Space
	// division via a fresh ProdSET.
	fmt.Println("\nins: Space division starts manufacturing Sausage (with a Door!)")
	c.Base.MustInsertIntoSet(c.PartsSausage, gom.Ref(c.PartDoor))
	prodSet := c.Base.MustNew(c.Schema.MustLookup("ProdSET"))
	c.Base.MustInsertIntoSet(prodSet.ID(), gom.Ref(c.ProdSausage))
	c.Base.MustSetAttr(c.DivSpace, "Manufactures", gom.Ref(prodSet.ID()))

	fmt.Println("Query 2 now:", query2())

	// Partial-span query through the full extension: which products
	// contain a part named "Pepper"? (i=1, j=3 — only full supports it.)
	prods, err := ix.Query(ctx, false, 1, 3, gom.String("Pepper"))
	if err != nil {
		log.Fatal(err)
	}
	var pnames []string
	for _, id := range asr.OIDsOf(prods) {
		o, _ := c.Base.Get(id)
		nm, _ := o.Attr("Name")
		pnames = append(pnames, gom.ValueString(nm))
	}
	fmt.Println("partial-span Q_{1,3}(bw, 'Pepper') — products containing Pepper:", pnames)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
