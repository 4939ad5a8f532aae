package live

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

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

func TestDecodeEventValidation(t *testing.T) {
	ev := Event{At: 10, Kind: EventReplicate, Object: 3, From: 1, To: 2, Move: "repair"}
	var got Event
	if err := Decode(Encode(&ev), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != ev {
		t.Fatalf("round trip: got %+v, want %+v", got, ev)
	}
	bad := Event{At: 10, Kind: "teleport"}
	var dst Event
	err := Decode(Encode(&bad), &dst)
	var we *WireError
	if !errors.As(err, &we) || we.Field != "kind" {
		t.Fatalf("unknown kind: err = %v, want WireError on field kind", err)
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []protocol.Method{protocol.Migrate, protocol.Replicate, protocol.Repair} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("EXFILTRATE"); err == nil {
		t.Fatal("ParseMethod accepted unknown name")
	}
}

func TestParseMoveKindRoundTrip(t *testing.T) {
	for _, k := range []protocol.MoveKind{protocol.GeoMove, protocol.LoadMove, protocol.RepairMove} {
		got, err := ParseMoveKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseMoveKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseMoveKind("sideways"); err == nil {
		t.Fatal("ParseMoveKind accepted unknown name")
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
