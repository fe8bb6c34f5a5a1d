// Quickstart: deploy one P4Auth switch, establish keys, and perform
// authenticated register reads and writes — then watch a tampered message
// get caught.
package main

import (
	"errors"
	"fmt"
	"log"

	"p4auth/internal/attacker"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

func main() {
	// 1. Build a switch: a host program shell plus the P4Auth data plane,
	//    compiled for the Tofino profile and booted with the seed key.
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:  "edge1",
		Ports: 8,
		Registers: []*pisa.RegisterDef{
			{Name: "path_latency", Width: 32, Entries: 16},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("switch compiled:", sw.Host.SW.Compiled().Name())

	// 2. Attach a controller and run the key-management protocol: EAK
	//    derives K_auth from the pre-shared seed, ADHKD derives K_local.
	ctrl := controller.New(crypto.CryptoRand{})
	if err := ctrl.Register("edge1", sw.Host, sw.Cfg, 0); err != nil {
		log.Fatal(err)
	}
	res, err := ctrl.LocalKeyInit("edge1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local key established: %d messages, %d bytes, RTT %v\n",
		res.Messages, res.Bytes, res.RTT)

	// 3. Authenticated register access: every message carries an HMAC-style
	//    digest verified inside the switch pipeline.
	if _, err := ctrl.WriteRegister("edge1", "path_latency", 3, 1500); err != nil {
		log.Fatal(err)
	}
	v, lat, err := ctrl.ReadRegister("edge1", "path_latency", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read path_latency[3] = %d (RCT %v)\n", v, lat)

	// 4. Compromise the switch OS (the paper's LD_PRELOAD backdoor) and
	//    watch P4Auth catch the manipulation.
	mitm := &attacker.CtrlPlaneMitM{
		RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
			if toDataPlane || m.Reg == nil {
				return false
			}
			m.Reg.Value = 1 // report a falsely low latency
			return true
		},
	}
	_ = sw.Host.Install(switchos.BoundaryAgentSDK, mitm.Hooks())
	_, _, err = ctrl.ReadRegister("edge1", "path_latency", 3)
	if errors.Is(err, controller.ErrTampered) {
		fmt.Println("tampered read detected:", err)
		fmt.Printf("alerts recorded: %d\n", ctrl.AlertCount())
	} else {
		log.Fatalf("expected tamper detection, got %v", err)
	}
}
