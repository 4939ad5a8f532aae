package live

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"radar/internal/protocol"
	"radar/internal/store"
)

func TestDecodeValidCreateObj(t *testing.T) {
	msg := CreateObjMsg{
		MsgID: 5, From: 0, To: 2, Method: protocol.Replicate.String(),
		Object: 17, UnitLoad: 0.25, SrcAff: 3, Now: 1000,
	}
	var got CreateObjMsg
	if err := Decode(Encode(&msg), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != msg {
		t.Fatalf("round trip: got %+v, want %+v", got, msg)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		field string // expected WireError.Field; "" for whole-body errors
	}{
		{"truncated json", `{"msg_id":`, ""},
		{"wrong type", `{"msg_id":"yes"}`, ""},
		{"zero msg id", `{"msg_id":0,"method":"REPLICATE","src_aff":1}`, "msg_id"},
		{"negative node", `{"msg_id":1,"from":-3,"method":"REPLICATE","src_aff":1}`, "from"},
		{"bad method", `{"msg_id":1,"method":"STEAL","src_aff":1}`, "method"},
		{"negative object", `{"msg_id":1,"method":"MIGRATE","object":-1,"src_aff":1}`, "object"},
		{"nan unit load", `{"msg_id":1,"method":"MIGRATE","unit_load":"nan","src_aff":1}`, ""},
		{"zero affinity", `{"msg_id":1,"method":"MIGRATE","src_aff":0}`, "src_aff"},
		{"negative time", `{"msg_id":1,"method":"MIGRATE","src_aff":1,"now":-5}`, "now"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var msg CreateObjMsg
			err := Decode([]byte(tc.body), &msg)
			if err == nil {
				t.Fatal("Decode accepted malformed body")
			}
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("error %T is not *WireError: %v", err, err)
			}
			if we.Field != tc.field {
				t.Fatalf("WireError.Field = %q, want %q", we.Field, tc.field)
			}
		})
	}
}

// TestDecodeEventValidation: a place reply whose events a driver cannot
// replay is rejected on the events field — an unknown kind, and an unknown
// move or method on the kinds that carry one, which the replay would
// otherwise skip, losing the decision from the accounting.
func TestDecodeEventValidation(t *testing.T) {
	for _, body := range []string{
		`{"events":[{"at":10,"kind":"teleport"}]}`,
		`{"events":[{"at":10,"kind":"migrate","object":3,"from":1,"to":2,"move":"sideways"}]}`,
		`{"events":[{"at":10,"kind":"replicate","object":3,"from":1,"to":2}]}`,
		`{"events":[{"at":10,"kind":"refuse","object":3,"from":1,"to":2,"method":"TELEPORT"}]}`,
		`{"events":[{"at":10,"kind":"defer","object":3,"from":1,"to":2}]}`,
		`{"events":[{"at":-1,"kind":"drop","object":3,"from":1}]}`,
	} {
		var rep PlaceReply
		var we *WireError
		if err := Decode([]byte(body), &rep); !errors.As(err, &we) || we.Field != "events" {
			t.Errorf("Decode(%s) = %v, want a WireError on field events", body, err)
		}
	}
}

// TestEventWireRoundTrip: a decision recorded on a node, sent in a place
// reply and replayed on the driver is recorded again as the same value,
// for every kind, move kind and method; a copy has no callback.
func TestEventWireRoundTrip(t *testing.T) {
	var sent []Event
	rec := protocol.Recorder(func(e Event) { sent = append(sent, e) })
	at := 90 * time.Second
	for _, k := range []protocol.MoveKind{protocol.GeoMove, protocol.LoadMove, protocol.RepairMove} {
		rec.OnMigrate(at, 3, 1, 2, k)
		rec.OnReplicate(at, 4, 2, 0, k)
	}
	for _, m := range []protocol.Method{protocol.Migrate, protocol.Replicate, protocol.Repair} {
		rec.OnRefuse(at, 5, 0, 1, m)
		rec.OnDefer(at, 6, 1, 0, m)
	}
	rec.OnDrop(at, 7, 2)
	copied := Event{At: int64(at), Kind: EventCopy, Object: 8, From: 0, To: 2}

	var rep PlaceReply
	if err := Decode(Encode(&PlaceReply{Events: append(slices.Clone(sent), copied)}), &rep); err != nil {
		t.Fatal(err)
	}
	var replayed []Event
	again := protocol.Recorder(func(e Event) { replayed = append(replayed, e) })
	for _, e := range rep.Events {
		e.Replay(again) // the copy makes no call
	}
	if !slices.Equal(replayed, sent) {
		t.Fatalf("replayed %+v, recorded %+v", replayed, sent)
	}
}

func TestLoadReplyWatermarkValidation(t *testing.T) {
	good := LoadReply{AcceptLoad: 1.5, Low: 80, High: 90}
	var got LoadReply
	if err := Decode(Encode(&good), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, bad := range []LoadReply{
		{AcceptLoad: 1, Low: 0, High: 90},
		{AcceptLoad: 1, Low: 90, High: 80},
		{AcceptLoad: -1, Low: 80, High: 90},
	} {
		var dst LoadReply
		if err := Decode(Encode(&bad), &dst); err == nil {
			t.Fatalf("Decode accepted %+v", bad)
		}
	}
}

// TestStatsReplyStoreLayers: the optional store_layers field survives the
// wire layer by layer, a reply without it stays as small as before, and a
// negative layer counter is rejected by name.
func TestStatsReplyStoreLayers(t *testing.T) {
	good := StatsReply{TotalServed: 10, StoreLayers: []store.LayerStats{
		{Label: "cache", Serves: 10, Hits: 7, Misses: 3},
		{Label: "disk:5ms", Serves: 3, CostNanos: 15e6},
	}}
	var got StatsReply
	if err := Decode(Encode(&good), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, good) {
		t.Fatalf("round trip: got %+v, want %+v", got, good)
	}
	if body := Encode(&StatsReply{TotalServed: 10}); bytes.Contains(body, []byte("store_layers")) {
		t.Errorf("reply without layers carries the field: %s", body)
	}
	bad := good
	bad.StoreLayers = []store.LayerStats{{Label: "mem", Serves: -1}}
	var we *WireError
	if err := Decode(Encode(&bad), &got); !errors.As(err, &we) || we.Field != "store_layers" {
		t.Fatalf("Decode of a negative layer counter = %v, want WireError on store_layers", err)
	}
}

// TestPostReadsReplies: Post decodes a 200 reply into resp and reads any
// other status as an error that carries the reply body.
func TestPostReadsReplies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var msg TickMsg
		if !readBody(w, r, &msg) {
			return
		}
		if msg.Now != 7 {
			http.Error(w, "no tick at 7", http.StatusConflict)
			return
		}
		writeJSON(w, &MeasureReply{Load: 3})
	}))
	defer srv.Close()
	var rep MeasureReply
	if err := Post(srv.Client(), srv.URL, &TickMsg{Now: 7}, &rep); err != nil || rep.Load != 3 {
		t.Fatalf("Post = %v with reply %+v, want nil and load 3", err, rep)
	}
	err := Post(srv.Client(), srv.URL, &TickMsg{Now: 8}, nil)
	if err == nil || !strings.Contains(err.Error(), "status 409") || !strings.Contains(err.Error(), "no tick at 7") {
		t.Fatalf("Post of a refused message = %v, want the status and the body", err)
	}
}
