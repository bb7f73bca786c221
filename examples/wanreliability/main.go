// wanreliability races the two reliability layers of §4 — Selective
// Repeat and Erasure Coding — over the same simulated lossy WAN and
// reports wall-clock completion times plus retransmission effort.
//
// The link models a 2 ms-RTT inter-site channel with 3% packet loss in
// the data direction; ACKs/NACKs ride a UD control path over the same
// lossy fabric.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

func main() {
	coreCfg := core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 4, Channels: 4,
	}
	relCfg := reliability.Config{
		RTT:          4 * time.Millisecond,
		Alpha:        2, // RTO = 3·RTT, the paper's SR RTO scenario
		PollInterval: 500 * time.Microsecond,
		AckInterval:  time.Millisecond,
		K:            8, M: 2, Code: "mds",
	}
	const size = 256 << 10

	for _, proto := range []reliability.Protocol{reliability.ProtoSR, reliability.ProtoSRNACK, reliability.ProtoEC} {
		elapsed, resent := run(coreCfg, relCfg, proto, size)
		fmt.Printf("%-8s  completed %3d KiB in %8.2f ms  (packets sent: %d)\n",
			proto, size>>10, elapsed.Seconds()*1e3, resent)
	}
}

func run(coreCfg core.Config, relCfg reliability.Config, proto reliability.Protocol, size int) (time.Duration, uint64) {
	lat := 2 * time.Millisecond
	sess, err := reliability.NewSession(coreCfg, relCfg,
		fabric.Config{Latency: lat, DropProb: 0.03, Seed: 11},
		fabric.Config{Latency: lat, DropProb: 0.03, Seed: 12},
		lat)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	recvBuf := make([]byte, size)
	mr := sess.Pair.B.Ctx.RegMR(recvBuf)
	scratch := sess.ScratchMR(proto, size)

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	var sendErr, recvErr error
	go func() {
		defer wg.Done()
		sendErr = proto.Write(sess.A, data)
	}()
	go func() {
		defer wg.Done()
		recvErr = proto.Receive(sess.B, mr, 0, size, scratch)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	if sendErr != nil || recvErr != nil {
		log.Fatalf("%s failed: send=%v recv=%v", proto, sendErr, recvErr)
	}
	if !bytes.Equal(recvBuf, data) {
		log.Fatalf("%s corrupted the payload", proto)
	}
	return elapsed, sess.Pair.A.QP.Stats().PacketsSent
}
