package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// phase 1: query-heavy workload (no index yet — every query is a traversal)
	//   tuner: T0.Next.Next.Next: current=none best=left (0, 3) (0.0 → 3.0 pages/op, no-support 32.5)
	//   installed: ASR T0.Next.Next.Next ext=left dec=(0, 6): E_left^0,6[1074 rows]
	//
	// phase 2: the workload turns update-heavy
	//   tuner: T0.Next.Next.Next: current=left (0, 3) best=full (0, 1, 2, 3) (18.0 → 10.2 pages/op, no-support 12.0)
	//   mix now has P_up = 0.72
	//   installed: ASR T0.Next.Next.Next ext=full dec=(0, 2, 4, 6): E_full^0,2[560 rows] E_full^2,4[1293 rows] E_full^4,6[1726 rows]
	//
	// all indexes consistent after the shift
}
