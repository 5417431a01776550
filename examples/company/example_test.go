package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// extension (Figure 2):
	//   i1:Company{i12, i13, i14}
	//   i12:Division[Name: "Auto", Manufactures: i10]
	//   i13:Division[Name: "Truck", Manufactures: i11]
	//   i14:Division[Name: "Space", Manufactures: NULL]
	//   i10:ProdSET{i7}
	//   i11:ProdSET{i7, i8}
	//   i7:Product[Name: "560 SEC", Composition: i4]
	//   i8:Product[Name: "MB Trak", Composition: NULL]
	//   i9:Product[Name: "Sausage", Composition: i6]
	//   i4:BasePartSET{i2}
	//   i5:BasePartSET{i2}
	//   i6:BasePartSET{i3}
	//   i2:BasePart[Name: "Door", Price: 1205.5]
	//   i3:BasePart[Name: "Pepper", Price: 0.12]
	// path: Division.Manufactures.Composition.Name — n=3 steps, k=2 set occurrences, relation arity n+k+1=6
	//
	// E_0 (3 tuples)
	// OID_Division | OID_ProdSET | OID_Product
	// i12          | i10         | i7
	// i13          | i11         | i7
	// i13          | i11         | i8
	//
	// E_1 (2 tuples)
	// OID_Product | OID_BasePartSET | OID_BasePart
	// i7          | i4              | i2
	// i9          | i6              | i3
	//
	// E_2 (2 tuples)
	// OID_BasePart | VALUE_Name
	// i2           | "Door"
	// i3           | "Pepper"
	//
	// E_can (2 tuples)
	// OID_Division | OID_ProdSET | OID_Product | OID_BasePartSET | OID_BasePart | VALUE_Name
	// i12          | i10         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i7          | i4              | i2           | "Door"
	//
	// E_full (4 tuples)
	// OID_Division | OID_ProdSET | OID_Product | OID_BasePartSET | OID_BasePart | VALUE_Name
	// NULL         | NULL        | i9          | i6              | i3           | "Pepper"
	// i12          | i10         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i8          | NULL            | NULL         | NULL
	//
	// E_left (3 tuples)
	// OID_Division | OID_ProdSET | OID_Product | OID_BasePartSET | OID_BasePart | VALUE_Name
	// i12          | i10         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i8          | NULL            | NULL         | NULL
	//
	// E_right (3 tuples)
	// OID_Division | OID_ProdSET | OID_Product | OID_BasePartSET | OID_BasePart | VALUE_Name
	// NULL         | NULL        | i9          | i6              | i3           | "Pepper"
	// i12          | i10         | i7          | i4              | i2           | "Door"
	// i13          | i11         | i7          | i4              | i2           | "Door"
	//
	// E_can^0,1 (2 tuples)
	// OID_Division | OID_ProdSET
	// i12          | i10
	// i13          | i11
	//
	// E_can^1,2 (2 tuples)
	// OID_ProdSET | OID_Product
	// i10         | i7
	// i11         | i7
	//
	// E_can^2,3 (1 tuples)
	// OID_Product | OID_BasePartSET
	// i7          | i4
	//
	// E_can^3,4 (1 tuples)
	// OID_BasePartSET | OID_BasePart
	// i4              | i2
	//
	// E_can^4,5 (1 tuples)
	// OID_BasePart | VALUE_Name
	// i2           | "Door"
	//
	// recomposition lossless: true
	//
	// Query 2 — divisions using a BasePart named 'Door': ["Auto" "Truck"]
	// Query 3 — BasePart names used by division 'Auto': ["Door"]
	//
	// ins: Space division starts manufacturing Sausage (with a Door!)
	// Query 2 now: ["Auto" "Truck" "Space"]
	// partial-span Q_{1,3}(bw, 'Pepper') — products containing Pepper: ["Sausage"]
}
