package main

import (
	"fmt"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// servePprof starts an HTTP server exposing the net/http/pprof handlers at
// /debug/pprof/ on addr (e.g. "localhost:6060"; use ":0" for an ephemeral
// port). It returns the bound address and a shutdown function. The server
// uses its own mux so enabling profiling never touches http.DefaultServeMux.
func servePprof(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: pprof listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close.
	return ln.Addr().String(), srv.Close, nil
}

// startCPUProfile begins writing a CPU profile to path and returns the stop
// function that finalises and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes a garbage-collected heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialise up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing heap profile: %w", err)
	}
	return f.Close()
}
