package pisa

// RaceEnabled lets the external test package skip its alloc-count guards
// under -race, as the internal ones do.
const RaceEnabled = raceEnabled
