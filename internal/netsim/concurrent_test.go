package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSend exercises the goroutine-safe scheduling surface: many
// goroutines (standing in for the controller's concurrent callers) call
// Send and After concurrently while the main goroutine drives the event
// loop and reads link stats. Run under -race (make check does) this pins
// the locking discipline in Sim and Link.
func TestConcurrentSend(t *testing.T) {
	n := NewNetwork()
	var delivered atomic.Uint64
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, _ []byte) {
		delivered.Add(1)
	}))
	l := n.MustConnect("a", 0, "b", 0, 10*time.Microsecond, 1e9)
	src := n.Node("a")

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			buf := []byte{byte(w), 0, 0}
			for i := 0; i < perWorker; i++ {
				buf[1], buf[2] = byte(i>>8), byte(i)
				if err := n.Send(src, 0, buf, time.Duration(i)*time.Nanosecond); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				n.Sim.After(time.Microsecond, func() {})
				_ = n.Sim.Now()
				if _, _, err := l.TxStats("a"); err != nil {
					t.Errorf("txstats: %v", err)
					return
				}
			}
		}(w)
	}
	close(start)

	// Drive the loop while senders are still scheduling: drain repeatedly
	// until the senders are done and the queue is empty.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	for {
		n.Sim.Run()
		select {
		case <-doneCh:
		default:
			continue
		}
		n.Sim.Run() // drain anything scheduled after the last drain
		break
	}

	if got, want := delivered.Load(), uint64(workers*perWorker); got != want {
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
	bytes, pkts, err := l.TxStats("a")
	if err != nil {
		t.Fatalf("txstats: %v", err)
	}
	if pkts != uint64(workers*perWorker) || bytes != 3*pkts {
		t.Fatalf("txstats = %d bytes / %d pkts, want %d / %d",
			bytes, pkts, 3*uint64(workers*perWorker), workers*perWorker)
	}
}

// TestConcurrentSetDown races administrative link cuts against senders.
func TestConcurrentSetDown(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, _ []byte) {}))
	l := n.MustConnect("a", 0, "b", 0, time.Microsecond, 0)
	src := n.Node("a")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = n.Send(src, 0, []byte{1}, 0)
				l.SetDown(i%2 == 0)
				_ = l.Down()
			}
		}()
	}
	wg.Wait()
	l.SetDown(false)
	n.Sim.Run()
}
