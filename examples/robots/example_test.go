package main

// Example runs the program, so the tests check what it prints.
func Example() {
	main()
	// Output:
	// schema (§2.2):
	//   type ROBOT_SET is {ROBOT};
	//   type ROBOT is [Name: STRING, Arm: ARM];
	//   type ARM is [Kinematics: STRING, MountedTool: TOOL];
	//   type TOOL is [Function: STRING, ManufacturedBy: MANUFACTURER];
	//   type MANUFACTURER is [Name: STRING, Location: STRING];
	//
	// extension (Figure 1):
	//   i6:ROBOT[Name: "R2D2", Arm: i5]
	//   i5:ARM[Kinematics: "kinematics of R2D2", MountedTool: i3]
	//   i3:TOOL[Function: "welding", ManufacturedBy: i2]
	//   i2:MANUFACTURER[Name: "RobClone", Location: "Utopia"]
	//   i8:ROBOT[Name: "X4D5", Arm: i7]
	//   i7:ARM[Kinematics: "kinematics of X4D5", MountedTool: i4]
	//   i4:TOOL[Function: "gripping", ManufacturedBy: i2]
	//   i10:ROBOT[Name: "Robi", Arm: i9]
	//   i9:ARM[Kinematics: "kinematics of Robi", MountedTool: i4]
	//
	// path expression: ROBOT.Arm.MountedTool.ManufacturedBy.Location (linear: true, arity 5)
	// Query 1 via can   extension: ["R2D2" "X4D5" "Robi"]
	// Query 1 via full  extension: ["R2D2" "X4D5" "Robi"]
	// Query 1 via left  extension: ["R2D2" "X4D5" "Robi"]
	// Query 1 via right extension: ["R2D2" "X4D5" "Robi"]
	//
	// swapping Robi's tool to the welder...
	// Query 1 still finds 3 robots (all tools come from RobClone)
	// after the gripper moved to Acme/Elsewhere: 2 robots use Utopia tools
	//   i6 "R2D2"
	//   i10 "Robi"
}
