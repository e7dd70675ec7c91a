package rmi

import (
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/security"
)

// FuzzMuxFaultyConn drives the pipelined transport over a connection
// with fuzz-chosen injected faults — torn partial writes, byte-at-a-time
// slow drips, resets, and drops at fuzzed operation counts — against a
// well-behaved echo peer. Every in-flight call must resolve (successfully
// or with the epoch fault) without a panic or hang: the per-call deadline
// is the backstop for swallowed and torn frames.
func FuzzMuxFaultyConn(f *testing.F) {
	f.Add(uint8(netsim.FaultPartial), uint8(0), uint8(1), uint8(3))
	f.Add(uint8(netsim.FaultSlowDrip), uint8(0), uint8(2), uint8(0))
	f.Add(uint8(netsim.FaultSlowDrip), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(netsim.FaultReset), uint8(0), uint8(4), uint8(0))
	f.Add(uint8(netsim.FaultDrop), uint8(0), uint8(2), uint8(0))
	f.Add(uint8(netsim.FaultTruncate), uint8(0), uint8(3), uint8(5))
	// The dropped hello: the client waits for a welcome the peer never
	// sends, until the handshake deadline below.
	f.Add(uint8(netsim.FaultDrop), uint8(netsim.OnWrite), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, kind, op, nth, keep uint8) {
		key, err := security.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		srvConn, cliConn := net.Pipe()
		go func() {
			defer srvConn.Close()
			fw, fr := &binFrameWriter{w: srvConn}, &binFrameReader{r: srvConn}
			var hello frame
			if fr.readFrame(&hello) != nil {
				return
			}
			if fw.writeFrame(&frame{Kind: kindWelcome, Session: "fuzz"}) != nil {
				return
			}
			for {
				var req frame
				if fr.readFrame(&req) != nil {
					return
				}
				var body echoReq
				resp := frame{Kind: kindResponse, ID: req.ID}
				if err := Decode(req.Payload, &body); err != nil {
					resp.Err = err.Error()
				} else if p, err := EncodePayload(echoResp{Bits: body.Bits}); err != nil {
					resp.Err = err.Error()
				} else {
					resp.Payload = p
				}
				if fw.writeFrame(&resp) != nil {
					return
				}
			}
		}()
		plan := &netsim.FaultPlan{Rules: []netsim.FaultRule{{
			Op:    netsim.FaultOp(op % 2),
			Nth:   1 + int(nth%8),
			Kind:  netsim.FaultKind(kind % 6),
			Delay: 50 * time.Microsecond,
			Keep:  int(keep % 16),
		}}}
		fc := plan.Wrap(cliConn)
		// NewClient honours a deadline already on the conn; it bounds a
		// handshake whose hello or welcome a fault swallowed.
		_ = fc.SetDeadline(time.Now().Add(time.Second))
		cli, err := NewClient(fc, "user", key)
		if err != nil {
			fc.Close()
			srvConn.Close()
			return // a fault during the handshake is a non-event
		}
		defer cli.Close()
		_ = fc.SetDeadline(time.Time{})
		cli.Timeout = 200 * time.Millisecond
		cli.MaxInFlight = 4
		var pending []*Pending
		for i := 0; i < 6; i++ {
			resp := new(echoResp)
			pending = append(pending, cli.Go("m", echoReq{Note: "fuzz"}, resp))
		}
		for i, p := range pending {
			select {
			case <-p.Done:
			case <-time.After(10 * time.Second):
				t.Fatalf("call %d hung on faulty connection (fault %v)", i, plan.Rules[0])
			}
		}
	})
}

// FuzzMuxResponses drives the pipelined transport against an adversarial
// peer that answers every request with a fuzz-shaped frame — mutated IDs,
// wrong kinds, error strings, undecodable payloads. The client must
// resolve every in-flight call (success, remote error, or epoch poison)
// without panicking or hanging; the per-call deadline is the backstop.
func FuzzMuxResponses(f *testing.F) {
	f.Add(uint64(0), uint8(kindResponse), []byte{}, "")
	f.Add(uint64(1), uint8(kindResponse), []byte{1, 2, 3}, "")
	f.Add(uint64(999), uint8(kindResponse), []byte(nil), "")
	f.Add(uint64(0), uint8(kindResponse), []byte(nil), "remote boom")
	f.Add(uint64(0), uint8(kindRequest), []byte(nil), "")
	f.Add(uint64(7), uint8(0xff), []byte{0xde, 0xad}, "x")
	f.Fuzz(func(t *testing.T, idDelta uint64, kind uint8, payload []byte, errStr string) {
		key, err := security.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		srvConn, cliConn := net.Pipe()
		go func() {
			defer srvConn.Close()
			fw, fr := &binFrameWriter{w: srvConn}, &binFrameReader{r: srvConn}
			var hello frame
			if fr.readFrame(&hello) != nil {
				return
			}
			if fw.writeFrame(&frame{Kind: kindWelcome, Session: "fuzz"}) != nil {
				return
			}
			for {
				var req frame
				if fr.readFrame(&req) != nil {
					return
				}
				resp := frame{Kind: kind, ID: req.ID + idDelta, Payload: payload, Err: errStr}
				if fw.writeFrame(&resp) != nil {
					return
				}
			}
		}()
		cli, err := NewClient(cliConn, "user", key)
		if err != nil {
			cliConn.Close()
			return // a peer that breaks the handshake is a non-event
		}
		defer cli.Close()
		cli.Timeout = 200 * time.Millisecond
		cli.MaxInFlight = 4
		var pending []*Pending
		for i := 0; i < 4; i++ {
			resp := new(echoResp)
			pending = append(pending, cli.Go("m", echoReq{Note: "fuzz"}, resp))
		}
		for i, p := range pending {
			select {
			case <-p.Done:
			case <-time.After(10 * time.Second):
				t.Fatalf("call %d hung on fuzzed response stream", i)
			}
		}
	})
}
