package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"time"

	"radar/internal/live"
	"radar/internal/protocol"
)

// probeMessage is a representative CreateObj handshake.
func probeMessage(id uint64) live.CreateObjMsg {
	return live.CreateObjMsg{
		MsgID:    id,
		From:     1,
		To:       0,
		Method:   protocol.Replicate.String(),
		Object:   17,
		UnitLoad: 3.25,
		SrcAff:   1,
		Now:      int64(90 * time.Second),
	}
}

// wireProbe times the wire format on a CreateObjMsg: what every control
// RPC pays on each side of the HTTP hop.
func wireProbe(rep *report) {
	msg := probeMessage(1 << 41)
	var data []byte
	enc, _ := timed(probeOps, func() {
		for i := 0; i < probeOps; i++ {
			data = live.Encode(&msg)
		}
	})
	var back live.CreateObjMsg
	dec, _ := timed(probeOps, func() {
		for i := 0; i < probeOps; i++ {
			if err := live.Decode(data, &back); err != nil {
				rep.problem("wire probe: %v", err)
				return
			}
		}
	})
	rep.set("live.encode_ns", enc, probeOps)
	rep.set("live.decode_ns", dec, probeOps)
}

// dedupProbe sends the same CreateObj message to a node twice, many times
// over, and reports the median round trip of the second send: the verdict
// replay a retried handshake gets from the node's dedup cache, HTTP hop
// included. Message IDs sit above anything a node allocates (id<<40 | seq).
func dedupProbe(f *fleet, rep *report) {
	client := &http.Client{Timeout: clientTimeout}
	defer client.CloseIdleConnections()
	post := func(body []byte) (time.Duration, error) {
		start := time.Now()
		res, err := client.Post(f.urls[0]+live.PathCreateObj, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return time.Since(start), err
	}
	const rounds = 500
	replays := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		msg := probeMessage(1<<62 | uint64(i))
		body := live.Encode(&msg)
		if _, err := post(body); err != nil {
			rep.problem("dedup probe: %v", err)
			return
		}
		d, err := post(body)
		if err != nil {
			rep.problem("dedup probe: %v", err)
			return
		}
		replays = append(replays, d.Seconds())
	}
	sort.Float64s(replays)
	rep.set("live.dedup_replay_us", 1e6*quantile(replays, 0.5), len(replays))
}
