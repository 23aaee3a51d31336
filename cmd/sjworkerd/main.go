// Command sjworkerd is the standalone resident shard worker daemon: it
// listens on a TCP address and serves spatial-join shard jobs to any
// coordinator that connects (sjoin -shard-endpoints, or
// core.Config.ShardEndpoints). One connection carries one job
// conversation in the same CRC-32C frame protocol the pipe transport
// uses; the process outlives its connections, which is the point — a
// lease against a warm daemon costs a dial where a local worker costs a
// fork/exec.
//
// Usage:
//
//	sjworkerd [-listen :9400]
//
// The daemon prints "listening <addr>" on stdout once bound (scripts
// and tests scan for that line to learn a kernel-chosen port) and
// serves until killed. Jobs arriving concurrently are served
// concurrently; a torn connection abandons only its own conversation.
package main

import (
	"flag"
	"fmt"
	"os"

	"spatialjoin/internal/shard"
)

func main() {
	listen := flag.String("listen", ":9400", "TCP address to serve shard jobs on (host:port; :0 picks a free port)")
	flag.Parse()

	if err := shard.ListenAndServe(*listen, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sjworkerd: %v\n", err)
		os.Exit(1)
	}
}
