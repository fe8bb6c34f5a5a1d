// Command p4auth-demo narrates the paper's two headline attack/defence
// scenarios end to end:
//
//	p4auth-demo -scenario routescout   # Fig. 2/16: control-plane MitM
//	p4auth-demo -scenario hula         # Fig. 3/17: on-link MitM
//	p4auth-demo -scenario replay       # §VIII: replayed writeReq
//	p4auth-demo                        # all three
package main

import (
	"flag"
	"fmt"
	"os"

	"p4auth/internal/bench"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

func main() {
	scenario := flag.String("scenario", "", "routescout | hula | replay (default: all)")
	flag.Parse()

	demos := map[string]func() error{
		"routescout": demoRouteScout,
		"hula":       demoHula,
		"replay":     demoReplay,
	}
	order := []string{"routescout", "hula", "replay"}
	if *scenario != "" {
		fn, ok := demos[*scenario]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
			os.Exit(2)
		}
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, name := range order {
		if err := demos[name](); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func demoRouteScout() error {
	fmt.Println("== RouteScout under a control-plane MitM (paper Fig. 2 / Fig. 16) ==")
	fmt.Println("An attacker at the switch OS inflates path 1's reported latency so the")
	fmt.Println("controller diverts traffic to the genuinely slower path 2.")
	rep, err := bench.Fig16()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func demoHula() error {
	fmt.Println("== HULA under an on-link MitM (paper Fig. 3 / Fig. 17) ==")
	fmt.Println("An attacker on the S4-S1 link forges probeUtil so S1 believes the path")
	fmt.Println("via S4 is idle. With P4Auth each probe replica is signed with its")
	fmt.Println("egress-port key in the egress pipeline and verified at S1's ingress.")
	rep, err := bench.Fig17()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func demoReplay() error {
	fmt.Println("== Replay defence (paper §VIII) ==")
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:  "edge",
		Ports: 4,
		Registers: []*pisa.RegisterDef{
			{Name: "split", Width: 32, Entries: 1},
		},
	})
	if err != nil {
		return err
	}
	c := controller.New(crypto.NewSeededRand(0xDE40))
	if err := c.Register("edge", sw.Host, sw.Cfg, 0); err != nil {
		return err
	}
	if _, err := c.LocalKeyInit("edge"); err != nil {
		return err
	}
	fmt.Println("controller: established K_local via EAK + ADHKD")

	if _, err := c.WriteRegister("edge", "split", 0, 128); err != nil {
		return err
	}
	fmt.Println("controller: wrote split=128 (authenticated writeReq)")

	// The attacker records the valid message and replays it after the
	// operator changes the split.
	recorded := recordWrite(sw, c)
	if _, err := c.WriteRegister("edge", "split", 0, 200); err != nil {
		return err
	}
	fmt.Println("controller: wrote split=200")

	res, err := sw.Host.PacketOut(recorded)
	if err != nil {
		return err
	}
	for _, pin := range res.PacketIns {
		if m, err := core.DecodeMessage(pin); err == nil && m.HdrType == core.HdrAlert {
			fmt.Printf("data plane: replay detected -> alert (reason %d)\n", m.MsgType)
		}
	}
	v, _ := sw.Host.SW.RegisterRead("split", 0)
	fmt.Printf("data plane: split register = %d (replayed 128 was rejected)\n", v)
	return nil
}

// recordWrite captures the wire bytes of an authenticated writeReq via a
// passive interposer at the switch stack — what the paper's adversary
// records before replaying.
func recordWrite(sw *deploy.Switch, c *controller.Controller) []byte {
	var captured []byte
	_ = sw.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			captured = append([]byte(nil), data...)
			return data
		},
	})
	_, _ = c.WriteRegister("edge", "split", 0, 128)
	_ = sw.Host.Install(switchos.BoundaryAgentSDK, nil)
	return captured
}
