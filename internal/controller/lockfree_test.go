package controller

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4auth/internal/netsim"
	"p4auth/internal/statestore"
)

// TestRequestPathTakesNoControllerLock makes the lock census of the
// Controller doc comment a checked fact: with c.mu held by someone else
// for the whole call, a register write, a read, a windowed batch, a
// write under the resilient policy and a journaled write all complete.
func TestRequestPathTakesNoControllerLock(t *testing.T) {
	plain, _, _ := twoSwitchFabric(t)
	resilient, _, _ := twoSwitchFabric(t)
	resilient.SetRetryPolicy(ResilientRetryPolicy())
	durable, _, _ := twoSwitchFabric(t)
	if err := durable.EnableCrashSafety(statestore.NewMem()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Controller{plain, resilient, durable} {
		if _, err := c.LocalKeyInit("s1"); err != nil {
			t.Fatal(err)
		}
	}
	write := func(c *Controller) error {
		_, err := c.WriteRegister("s1", "lat", 3, 77)
		return err
	}
	ops := []struct {
		name string
		c    *Controller
		run  func(c *Controller) error
	}{
		{"WriteRegister", plain, write},
		{"ReadRegister", plain, func(c *Controller) error {
			v, _, err := c.ReadRegister("s1", "lat", 3)
			if err == nil && v != 77 {
				err = errors.New("read did not return the value written")
			}
			return err
		}},
		{"WriteRegisterBatch", plain, func(c *Controller) error {
			_, err := c.WriteRegisterBatch("s1", 4, []RegWrite{
				{Register: "lat", Index: 0, Value: 1}, {Register: "lat", Index: 1, Value: 2},
				{Register: "lat", Index: 2, Value: 3}, {Register: "lat", Index: 4, Value: 5},
				{Register: "lat", Index: 5, Value: 6},
			})
			return err
		}},
		{"WriteRegister under the resilient policy", resilient, write},
		{"journaled WriteRegister", durable, write},
	}
	for _, op := range ops {
		op.c.mu.Lock()
		done := make(chan error, 1)
		go func() { done <- op.run(op.c) }()
		select {
		case err := <-done:
			op.c.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		case <-time.After(20 * time.Second):
			op.c.mu.Unlock() // let the stuck request finish before failing
			<-done
			t.Fatalf("%s waited for c.mu", op.name)
		}
	}
}

// TestSettersVsInFlightWrites flips every setter whose value the request
// path reads from a published snapshot while writers run, then kills the
// controller. What must hold: a fence installed before a send is
// consulted by it (no edit of the snapshot loses another), once Kill has
// returned no further send is counted, and at quiescence Stats equals
// what the writers themselves saw go over the wire.
func TestSettersVsInFlightWrites(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	defer c.Kill() // stops the writers on every way out
	spare := buildSwitch(t, "s3", false)
	for _, sw := range []string{"s1", "s2"} {
		if _, err := c.LocalKeyInit(sw); err != nil {
			t.Fatal(err)
		}
	}
	base := c.Stats()

	// What the writers kept: their own transfers, message by message.
	var sent, recvd, sentBytes, rcvdBytes atomic.Int64
	write := func(sw string, i int) error {
		h, err := c.handle(sw)
		if err != nil {
			return err
		}
		x, err := c.regWrite(h, "lat", uint32(i%8), uint64(i))
		sends := x.sends
		if errors.Is(err, ErrKilled) {
			sends-- // the refused attempt was never on the wire
		}
		sent.Add(int64(sends))
		recvd.Add(int64(x.recvs))
		sentBytes.Add(int64(x.sentBytes))
		rcvdBytes.Add(int64(x.rcvdBytes))
		return err
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	writer := func(sw string, before func() (after func() error)) {
		defer wg.Done()
		for i := 0; ; i++ {
			after := before()
			err := write(sw, i)
			if errors.Is(err, ErrKilled) {
				return
			}
			if err == nil {
				err = after()
			}
			if err != nil {
				errCh <- err
				return
			}
		}
	}
	wg.Add(2)
	go writer("s1", func() func() error { return func() error { return nil } })
	// s2's writer owns the fence: a fresh one before every write, which
	// that write must consult however the other setters interleave.
	go writer("s2", func() func() error {
		var consulted atomic.Int32
		c.SetSendFence(func() error { consulted.Add(1); return nil })
		return func() error {
			if consulted.Load() == 0 {
				return errors.New("a write did not consult the fence installed before it")
			}
			return nil
		}
	})

	sim := netsim.NewSim()
	passThrough := func(p []byte) []byte { return p }
	const writes = 2000
	deadline := time.Now().Add(time.Minute)
	for i := 0; sent.Load() < writes && len(errCh) == 0; i++ {
		if time.Now().After(deadline) {
			t.Errorf("only %d writes in a minute beside the setters", sent.Load())
			break
		}
		if i%2 == 0 {
			c.SetRetryPolicy(ResilientRetryPolicy())
			c.UseClock(sim)
			if err := c.SetControlTaps("s1", passThrough, passThrough); err != nil {
				t.Fatal(err)
			}
			if err := c.Register("s3", spare.Host, spare.Cfg, time.Microsecond); err != nil {
				t.Fatal(err)
			}
		} else {
			c.SetRetryPolicy(DefaultRetryPolicy)
			c.UseClock(nil)
			if err := c.SetControlTaps("s1", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.Quarantine("s3"); err != nil {
				t.Fatal(err)
			}
		}
		// The observers stay safe beside all of it.
		c.Stats()
		c.Alerts()
		if _, err := c.Outstanding("s1"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.HealthOf("s2"); err != nil {
			t.Fatal(err)
		}
	}

	c.Kill()
	atKill := c.Stats().MessagesSent
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 0, 1); !errors.Is(err, ErrKilled) {
		t.Errorf("write after Kill: %v, want ErrKilled", err)
	}
	end := c.Stats()
	if end.MessagesSent != atKill {
		t.Errorf("MessagesSent moved from %d to %d after Kill had returned", atKill, end.MessagesSent)
	}
	got := Stats{
		MessagesSent:  end.MessagesSent - base.MessagesSent,
		MessagesRecvd: end.MessagesRecvd - base.MessagesRecvd,
		BytesSent:     end.BytesSent - base.BytesSent,
		BytesRecvd:    end.BytesRecvd - base.BytesRecvd,
	}
	want := Stats{
		MessagesSent:  int(sent.Load()),
		MessagesRecvd: int(recvd.Load()),
		BytesSent:     int(sentBytes.Load()),
		BytesRecvd:    int(rcvdBytes.Load()),
	}
	if got != want {
		t.Errorf("Stats at quiescence %+v, the writers kept %+v", got, want)
	}
}
