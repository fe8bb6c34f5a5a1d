package fleet

import (
	"slices"
	"testing"

	"p4auth/internal/app"
	"p4auth/internal/blink"
	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/flowradar"
	"p4auth/internal/hula"
	"p4auth/internal/netcache"
	"p4auth/internal/netwarden"
	"p4auth/internal/pisa"
	"p4auth/internal/routescout"
	"p4auth/internal/silkroad"
	"p4auth/internal/sketch"
	"p4auth/internal/switchos"
)

// regMapHits factory-resets the switch to its seed key, then sends a
// signed read, and a signed write of the value read, to index 0 of every
// register in the host's p4info and to two IDs no register has. It returns the names whose read and whose write were
// acknowledged; an unknown ID that is acknowledged is reported as "?".
func regMapHits(t *testing.T, host *switchos.Host, cfg core.Config) (reads, writes []string) {
	t.Helper()
	if err := core.FactoryReset(host.SW, cfg); err != nil {
		t.Fatal(err)
	}
	dig, err := cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	var seq uint32
	send := func(msgType uint8, id uint32, value uint64) *core.Message {
		t.Helper()
		seq++
		m := &core.Message{
			Header: core.Header{HdrType: core.HdrRegister, MsgType: msgType, SeqNum: seq},
			Reg:    &core.RegPayload{RegID: id, Value: value},
		}
		if err := m.Sign(dig, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		res, err := host.SW.Process(pisa.Packet{Data: data, Port: pisa.CPUPort})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Emissions) != 1 || res.Emissions[0].Port != pisa.CPUPort {
			t.Fatalf("register request %#x: %d emissions, want one response", id, len(res.Emissions))
		}
		r, err := core.DecodeMessage(res.Emissions[0].Data)
		if err != nil {
			t.Fatal(err)
		}
		if r.HdrType != core.HdrRegister || (r.MsgType != core.MsgAck && r.MsgType != core.MsgNAck) {
			t.Fatalf("register request %#x: response %+v", id, r.Header)
		}
		return r
	}
	ids := map[uint32]string{0: "?"}
	var last uint32
	for _, ri := range host.Info.Registers {
		ids[ri.ID] = ri.Name
		last = max(last, ri.ID)
	}
	ids[last+1] = "?"
	for id, name := range ids {
		r := send(core.MsgReadReq, id, 0)
		if r.MsgType == core.MsgAck {
			reads = append(reads, name)
		}
		if send(core.MsgWriteReq, id, r.Reg.Value).MsgType == core.MsgAck {
			writes = append(writes, name)
		}
	}
	slices.Sort(reads)
	slices.Sort(writes)
	return reads, writes
}

// TestRegisterMapPerBuilder pins the register map of every builder that
// weaves P4Auth in: an authenticated read and write reach exactly the
// registers it exposes plus the four P4Auth always exposes, and every
// other register ID misses.
func TestRegisterMapPerBuilder(t *testing.T) {
	always := []string{core.RegAlert, core.RegVer, core.RegSeq, core.RegSeqOut}
	type built struct {
		host    *switchos.Host
		cfg     core.Config
		exposed []string
	}
	builders := []struct {
		name  string
		build func() (built, error)
	}{
		{"deploy", func() (built, error) {
			sw, err := deploy.Build(deploy.SwitchSpec{Name: "pin", Ports: 4, Registers: []*pisa.RegisterDef{
				{Name: "r", Width: 32, Entries: 4},
				{Name: "s", Width: 64, Entries: 2},
			}})
			if err != nil {
				return built{}, err
			}
			return built{sw.Host, sw.Cfg, []string{"r", "s"}}, nil
		}},
		{"hula", func() (built, error) {
			sw, err := hula.NewSwitch("pin", hula.DefaultParams(1, 2), 1)
			if err != nil {
				return built{}, err
			}
			return built{sw.Host, sw.Cfg, []string{hula.RegBestUtil, hula.RegBestHop, hula.RegPortBlock, core.RegFbOK, core.RegFbBad}}, nil
		}},
		{"netcache", func() (built, error) {
			s, err := netcache.New(netcache.DefaultParams(true))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, append(s.CMS.RegisterNames(), netcache.RegHits, netcache.RegMisses, netcache.RegSlotHits)}, nil
		}},
		{"silkroad", func() (built, error) {
			s, err := silkroad.New(silkroad.DefaultParams(true))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, append(s.Bloom.RegisterNames(), silkroad.RegMigrating, silkroad.RegPoolVer, silkroad.RegOldServed, silkroad.RegNewServed)}, nil
		}},
		{"sketch", func() (built, error) {
			s, err := sketch.NewHH(sketch.DefaultHHParams(true))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, append(s.CMS.RegisterNames(), sketch.RegWatch)}, nil
		}},
		{"netwarden", func() (built, error) {
			s, err := netwarden.New(netwarden.DefaultParams(true))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, []string{netwarden.RegJitter, netwarden.RegPackets, netwarden.RegVerdict, netwarden.RegBlocked}}, nil
		}},
		{"flowradar", func() (built, error) {
			s, err := flowradar.New(flowradar.DefaultParams(true))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, []string{flowradar.RegFlowXOR, flowradar.RegFlowCnt, flowradar.RegPktCnt}}, nil
		}},
		{"blink", func() (built, error) {
			s, err := blink.New(blink.DefaultParams(true), 1, 2)
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, []string{blink.RegPrimary, blink.RegBackup, blink.RegEvidence, blink.RegFailed}}, nil
		}},
		{"routescout", func() (built, error) {
			s, err := routescout.New(routescout.DefaultConfig(app.ModeP4Auth))
			if err != nil {
				return built{}, err
			}
			return built{s.Host, s.Cfg, []string{routescout.RegSplit, routescout.RegLatSum, routescout.RegLatCnt}}, nil
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			sys, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]string(nil), sys.exposed...), always...)
			slices.Sort(want)
			reads, writes := regMapHits(t, sys.host, sys.cfg)
			if !slices.Equal(reads, want) {
				t.Errorf("reads reach %v, want %v", reads, want)
			}
			if !slices.Equal(writes, want) {
				t.Errorf("writes reach %v, want %v", writes, want)
			}
		})
	}
}
