package bench

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
)

// regRWRequests is the number of sequential requests per variant per
// operation, the paper's methodology.
const regRWRequests = 200

// regRWVariant measures one of the paper's three register-access variants.
type regRWVariant struct {
	label string
	read  func() (time.Duration, error)
	write func() (time.Duration, error)
}

func buildRegRWVariants() ([]regRWVariant, error) {
	mk := func(name string, insecure bool) (*controller.Controller, error) {
		c := controller.New(crypto.NewSeededRand(0xF18))
		return c, addSwitch(c, name, insecure, 0)
	}

	// P4Runtime variant: the API stack. DP-Reg-RW: PacketOut without
	// digests. P4Auth: PacketOut with digests under an established key.
	apiCtrl, err := mk("api", true)
	if err != nil {
		return nil, err
	}
	dpCtrl, err := mk("dp", true)
	if err != nil {
		return nil, err
	}
	paCtrl, err := mk("pa", false)
	if err != nil {
		return nil, err
	}

	var i uint32
	next := func() uint32 { i++; return i % 1024 }
	return []regRWVariant{
		{
			label: "P4Runtime",
			read: func() (time.Duration, error) {
				_, lat, err := apiCtrl.ReadRegisterAPI("api", benchReg, next())
				return lat, err
			},
			write: func() (time.Duration, error) {
				return apiCtrl.WriteRegisterAPI("api", benchReg, next(), 42)
			},
		},
		{
			label: "DP-Reg-RW",
			read: func() (time.Duration, error) {
				_, lat, err := dpCtrl.ReadRegisterInsecure("dp", benchReg, next())
				return lat, err
			},
			write: func() (time.Duration, error) {
				return dpCtrl.WriteRegisterInsecure("dp", benchReg, next(), 42)
			},
		},
		{
			label: "P4Auth",
			read: func() (time.Duration, error) {
				_, lat, err := paCtrl.ReadRegister("pa", benchReg, next())
				return lat, err
			},
			write: func() (time.Duration, error) {
				return paCtrl.WriteRegister("pa", benchReg, next(), 42)
			},
		},
	}, nil
}

// regRWMean is one variant's mean read and write RCT.
type regRWMean struct {
	label       string
	read, write time.Duration
}

// measureRegRW runs regRWRequests reads and then as many writes through
// each variant in turn.
func measureRegRW() ([]regRWMean, error) {
	variants, err := buildRegRWVariants()
	if err != nil {
		return nil, err
	}
	means := make([]regRWMean, len(variants))
	for i, v := range variants {
		means[i].label = v.label
		if means[i].read, err = meanLatency(v.read); err != nil {
			return nil, err
		}
		if means[i].write, err = meanLatency(v.write); err != nil {
			return nil, err
		}
	}
	return means, nil
}

func meanLatency(op func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < regRWRequests; i++ {
		lat, err := op()
		if err != nil {
			return 0, err
		}
		total += lat
	}
	return total / regRWRequests, nil
}

// Fig18 regenerates Fig. 18: register read/write request completion time
// for the three variants.
func Fig18() (*Report, error) {
	means, err := measureRegRW()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "Fig 18",
		Title:   "Register read/write request completion time (RCT)",
		Columns: []string{"variant", "read RCT", "write RCT"},
	}
	for _, m := range means {
		rep.Rows = append(rep.Rows, []string{m.label, m.read.String(), m.write.String()})
	}
	rep.Notes = append(rep.Notes,
		"paper: P4Auth has minimal impact on RCT versus DP-Reg-RW")
	return rep, nil
}

// Fig19 regenerates Fig. 19: register read/write throughput.
func Fig19() (*Report, error) {
	means, err := measureRegRW()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "Fig 19",
		Title:   "Register read/write throughput (requests/s, sequential)",
		Columns: []string{"variant", "read tput", "write tput", "read/write"},
	}
	type tputs struct{ read, write float64 }
	all := map[string]tputs{}
	for _, m := range means {
		tr := float64(time.Second) / float64(m.read)
		tw := float64(time.Second) / float64(m.write)
		all[m.label] = tputs{tr, tw}
		rep.Rows = append(rep.Rows, []string{
			m.label,
			fmt.Sprintf("%.0f/s", tr),
			fmt.Sprintf("%.0f/s", tw),
			fmt.Sprintf("%.2fx", tr/tw),
		})
	}
	dp, pa := all["DP-Reg-RW"], all["P4Auth"]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("P4Auth vs DP-Reg-RW: read %+.1f%%, write %+.1f%% (paper: -4.2%% and -2.1%%)",
			100*(pa.read-dp.read)/dp.read, 100*(pa.write-dp.write)/dp.write),
		fmt.Sprintf("P4Runtime read/write ratio %.2fx (paper: ~1.7x)",
			all["P4Runtime"].read/all["P4Runtime"].write),
	)
	return rep, nil
}
