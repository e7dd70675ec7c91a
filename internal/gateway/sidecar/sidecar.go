// Package sidecar serves a gateway's operator endpoints over HTTP:
//
//	/healthz       liveness — 200 "ok" while serving, 503 "draining"
//	               once a graceful drain begins (load balancers stop
//	               routing before the listener actually closes)
//	/metrics       Prometheus text exposition (see Gateway.WriteMetrics)
//	/debug/pprof/  the standard pprof handlers
//
// It lives outside package gateway so that a program embedding the
// gateway links net/http, crypto/tls and pprof only when it serves these
// endpoints. The sidecar shares the process but not the listener with
// the RPC surface, so it stays scrapeable while the gateway drains. Its
// owner closes it after Gateway.Drain or Gateway.Close returns, so the
// drain itself is observable.
package sidecar

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/gateway"
)

// Sidecar is a running HTTP sidecar for one gateway.
type Sidecar struct {
	g    *gateway.Gateway
	addr string
	srv  *http.Server
	done chan struct{} // closed when the serve goroutine returns
}

// Listen starts the sidecar for g on a TCP address; it serves on a
// background goroutine until Close.
func Listen(g *gateway.Gateway, addr string) (*Sidecar, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Sidecar{g: g, addr: ln.Addr().String(), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			g.Logf("gateway: metrics sidecar: %v", err)
		}
	}()
	return s, nil
}

// Addr returns the sidecar's bound address.
func (s *Sidecar) Addr() string { return s.addr }

// Close stops the sidecar: its listener and connections close, and
// Close returns once the serve goroutine has.
func (s *Sidecar) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Sidecar) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.g.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Sidecar) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.g.WriteMetrics(w); err != nil {
		s.g.Logf("gateway: metrics write: %v", err)
	}
}
