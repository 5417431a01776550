package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// design ranking as the update probability grows:
	//   P_up = 0.05: best = left (0, 3, 4)         cost      3.3 (no support:   2051.0,  618.1x)
	//   P_up = 0.20: best = left (0, 3, 4)         cost      5.0 (no support:   1727.6,  344.0x)
	//   P_up = 0.50: best = full (0, 1, 3, 4)      cost      8.2 (no support:   1080.9,  131.0x)
	//   P_up = 0.90: best = full (0, 1, 2, 3, 4)   cost     10.5 (no support:    218.6,   20.8x)
	//
	// top designs at P_up = 0.2:
	// rank design                         mix cost          pages
	// 1    left (0, 3, 4)                     5.02             96
	// 2    full (0, 1, 3, 4)                  6.00            477
	// 3    left (0, 1, 3, 4)                  6.22             86
	// 4    left (0, 2, 3, 4)                  6.42             76
	// 5    full (0, 1, 2, 3, 4)               7.20            452
	// 6    left (0, 1, 2, 3, 4)               7.62             76
	// 7    full (0, 2, 3, 4)                 15.60            462
	// 8    left (0, 2, 4)                    19.82             96
	// no-support baseline: 1727.6
	//
	// break-even update probabilities:
	//   left vs full (binary)            P_up = 0.074
	//   best-dec left vs best-dec full   P_up = 0.961
	//
	// storage (pages, non-redundant) per extension under binary decomposition:
	//   can       54 pages (no-dec:    110)
	//   full     452 pages (no-dec:    955)
	//   left      76 pages (no-dec:    160)
	//   right    377 pages (no-dec:    793)
}
