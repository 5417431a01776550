package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// == Query 1 (robots, linear path) ==
	// select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"
	//   [traversal] plan: nested-loop traversal (no usable access support relation)
	//   [traversal]   "R2D2"
	//   [traversal]   "Robi"
	//   [traversal]   "X4D5"
	//   [with ASR] plan: predicate r.Arm.MountedTool.ManufacturedBy.Location = "Utopia" via ASR on ROBOT.Arm.MountedTool.ManufacturedBy.Location (3/3 anchors remain)
	//   [with ASR]   "R2D2"
	//   [with ASR]   "Robi"
	//   [with ASR]   "X4D5"
	//
	// == Query 2 (company, set-valued path, dependent range) ==
	// select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door"
	//   [traversal] plan: nested-loop traversal (no usable access support relation)
	//   [traversal]   "Auto"
	//   [traversal]   "Truck"
	//   [with ASR] plan: predicate b.Name = "Door" via ASR on Division.Manufactures.Composition.Name (2/3 anchors remain)
	//   [with ASR]   "Auto"
	//   [with ASR]   "Truck"
	//
	// == Query 3 (path projection) ==
	// select d.Manufactures.Composition.Name from d in Mercedes where d.Name = "Auto"
	//   [traversal] plan: nested-loop traversal (no usable access support relation)
	//   [traversal]   "Door"
}
