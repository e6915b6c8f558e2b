package mem

import "repro/internal/config"

// Port is the memory interface an engine composition drives off-chip
// memory through. The method list and its semantics are declared once, on
// config.MemPort (config sits below mem in the package graph and names the
// port in Hardware.SharedMem); this alias is the name the simulator uses.
type Port = config.MemPort

// The private DRAM model and the shared-chip core port are the two
// implementations.
var (
	_ Port                 = (*DRAM)(nil)
	_ Port                 = (*CorePort)(nil)
	_ config.MemPortSource = (*CorePort)(nil)
)
