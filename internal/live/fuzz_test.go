package live

import (
	"errors"
	"testing"

	"radar/internal/store"
	"radar/internal/topology"
)

// FuzzLiveRPC feeds arbitrary bytes through every wire message type's
// decode -> validate -> re-encode path: decoding never panics, every
// rejection is a typed *WireError, and a body that validates re-encodes
// to a body that decodes and validates again (the round trip is stable).
func FuzzLiveRPC(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"msg_id":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add(Encode(&CreateObjMsg{MsgID: 1, From: 0, To: 1, Method: "REPLICATE", Object: 3, UnitLoad: 0.5, SrcAff: 2, Now: 99}))
	f.Add(Encode(&NotifyMsg{Object: 4, Host: 1, Aff: 1}))
	f.Add(Encode(&DropMsg{MsgID: 3, Object: 5, Host: 0}))
	f.Add(Encode(&LoadReply{AcceptLoad: 1.25, Low: 80, High: 90, Has: true}))
	f.Add(Encode(&ReplicasReply{Hosts: []topology.NodeID{0, 2, 5}}))
	f.Add(Encode(&TickMsg{Now: 1000}))
	f.Add(Encode(&MeasureReply{Load: 3.5, Lower: 2, Upper: 4}))
	f.Add(Encode(&CompleteMsg{Object: 6, Gateway: 2}))
	f.Add(Encode(&CensusReply{TotalReplicas: 8, BelowFloor: 1, MaxReplicas: 3, Zero: 1}))
	f.Add(Encode(&MarkMsg{Host: 3, Down: true}))
	f.Add(Encode(&CreateObjReply{MsgID: 2, Accepted: true, Copied: true}))
	f.Add(Encode(&PlaceReply{Events: []Event{
		{At: 1, Kind: EventMigrate, Object: 2, From: 0, To: 1, Move: "geo"},
		{At: 2, Kind: EventRefuse, Object: 3, From: 1, To: 2, Method: "MIGRATE"},
		{At: 3, Kind: EventCopy, Object: 4, From: 2, To: 0},
		{At: 3, Kind: EventReplicate, Object: 4, From: 2, To: 0, Move: "load"},
		{At: 4, Kind: EventDefer, Object: 5, From: 0, To: 2, Method: "REPAIR"},
		{At: 5, Kind: EventDrop, Object: 6, From: 1},
	}}))
	f.Add(Encode(&StatsReply{TotalServed: 10, CreateExecutions: 2, CreatePeakConcurrency: 1}))
	f.Add(Encode(&StatsReply{TotalServed: 10, StoreLayers: []store.LayerStats{
		{Label: "cache", Serves: 10, Hits: 7, Misses: 3, Evictions: 1, Replicas: 4},
		{Label: "mem:8", Creates: 5, Serves: 7, Replicas: 4, BytesUsed: 4 << 12},
		{Label: "disk:5ms", Creates: 4, Serves: 3, Replicas: 4, CostNanos: 15e6},
	}}))
	f.Add([]byte(`{"msg_id":18446744073709551615,"method":"MIGRATE","src_aff":1}`))
	f.Add([]byte(`{"accept_load":1e308,"lw":1e-300,"hw":1e308}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := []validator{
			&CreateObjMsg{}, &CreateObjReply{}, &NotifyMsg{}, &DropMsg{},
			&DropReply{}, &LoadReply{}, &ReplicasReply{}, &TickMsg{},
			&PlaceReply{}, &MeasureReply{}, &CompleteMsg{}, &CensusReply{},
			&MarkMsg{}, &StatsReply{},
		}
		for _, msg := range msgs {
			err := Decode(data, msg)
			if err != nil {
				var we *WireError
				if !errors.As(err, &we) {
					t.Fatalf("%T: rejection is %T, not *WireError: %v", msg, err, err)
				}
				continue
			}
			re := Encode(msg)
			if err := Decode(re, msg); err != nil {
				t.Fatalf("%T: re-encoded body failed to decode: %v\nbody: %s", msg, err, re)
			}
		}
	})
}
