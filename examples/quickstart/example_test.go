package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// employees seated in Karlsruhe:
	//   i3 "Alfons"
	//   i4 "Guido"
	//   i5 "Peter"
	// Alfons works in: ["Karlsruhe"]
	// after the city was renamed, 3 employees match Munich
	// index layout: ASR EMPLOYEE.WorksFor.SeatedIn.Name ext=full dec=(0, 1, 2, 3): E_full^0,1[3 rows] E_full^1,2[1 rows] E_full^2,3[1 rows]
}
