package pisa

// RaceEnabled lets the external test package skip its alloc-count guards
// under -race, as the internal ones do.
const RaceEnabled = raceEnabled

// CheckCompiledPlans holds every byte plan of a compiled program equal to
// the bit-at-a-time reference codec (see packet_test.go).
var CheckCompiledPlans = checkCompiledPlans
