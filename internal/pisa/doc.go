// Package pisa models a PISA (Protocol-Independent Switch Architecture)
// programmable data plane of the kind P4Auth targets: a fixed-depth
// pipeline of match-action stages operating on a packet header vector
// (PHV), with exact/ternary/LPM tables, stateful registers, hash
// distribution units, and packet recirculation.
//
// The model enforces the constraints that shaped P4Auth's design (§V-§VII
// of the paper):
//
//   - per-packet operations are limited to 32-bit-ALU-friendly primitives
//     (add, xor, and, or, shifts); there is no multiply, divide, modulo, or
//     exponentiation op, and no loops — programs are straight-line per pass
//     and multi-pass computation requires recirculation;
//   - hashing is only available through a bounded pool of hash distribution
//     units (CRC32 on the Tofino profile), and a per-stage unit budget;
//   - each register may be accessed at most once per pipeline pass;
//   - PHV bits, SRAM blocks, and TCAM blocks are finite and accounted, so
//     compiling a program produces the Table II-style resource report.
//
// Programs are described with a small builder IR (Program, Table, Action,
// Op), compiled against a target Profile (Tofino or BMv2) into a
// Compiled program, and executed per packet by a Switch. Compile also
// links: every name is resolved once into a flat, index-addressed form
// (link.go), which is all that the per-packet path, stage placement and
// resource accounting read; a Compiled keeps no reference to its source
// Program. Packets are real
// byte strings: the pipeline parses them into the PHV with a programmable
// parser state machine and deparses the PHV back to bytes on emission, so
// a man-in-the-middle in the network sees — and can rewrite — exactly the
// bits a hardware switch would put on the wire.
package pisa
