// Command hurricane-storage runs a standalone Hurricane storage node
// serving the bag protocol over TCP.
//
// Usage:
//
//	hurricane-storage -addr 0.0.0.0:7070 [-dir /data/bags] [-name storage-0]
//
// With -dir, bags persist as files and survive restarts (the chunk index
// is rebuilt from the files on startup, as in the paper's ext4-backed
// implementation; a file without this format's header and version is
// refused, with an error naming it); otherwise bags live in memory.
//
// The node exposes its wire-path telemetry over HTTP (default
// 127.0.0.1:7071; move it with -debug addr, disable with -debug off):
// /metrics serves the hurricane_storage_op_* per-op latency/byte/error
// series from both the TCP server and the node itself in Prometheus
// text format, and /debug/storage serves a JSON summary of every bag's
// chunk/byte counts, stored and taken:
//
//	curl -s localhost:7071/metrics | grep hurricane_storage_op_total
//	curl -s localhost:7071/debug/storage
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	name := flag.String("name", "storage-0", "storage node name")
	dir := flag.String("dir", "", "directory for disk-backed bags (empty = in-memory)")
	debugAddr := flag.String("debug", "127.0.0.1:7071", "address for the /metrics and /debug/storage HTTP surface (\"off\" disables)")
	flag.Parse()

	var opts []storage.Option
	if *dir != "" {
		opts = append(opts, storage.WithDir(*dir))
	}
	node := storage.NewNode(*name, opts...)
	o := obs.New(0)
	node.Bind(o, 0)
	srv := transport.NewTCPServer(node)
	srv.Bind(transport.NewMeter(o, "server", *name, 0))
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("hurricane-storage: %v", err)
	}
	fmt.Printf("hurricane-storage %s listening on %s (backend: %s)\n",
		*name, bound, backendName(*dir))

	if *debugAddr != "off" {
		// The debug surface is auxiliary: a bind failure (several nodes on
		// one host all trying the default port) must not take down the
		// data plane. Nodes that need the surface pass distinct -debug
		// addresses (or :0).
		if ln, err := net.Listen("tcp", *debugAddr); err != nil {
			log.Printf("hurricane-storage: debug listener disabled: %v", err)
		} else {
			fmt.Printf("debug surface on http://%s (/metrics, /debug/storage)\n", ln.Addr())
			go func() {
				if err := http.Serve(ln, node.DebugHandler()); err != nil {
					log.Printf("hurricane-storage: debug server: %v", err)
				}
			}()
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
}

func backendName(dir string) string {
	if dir == "" {
		return "memory"
	}
	return "disk:" + dir
}
