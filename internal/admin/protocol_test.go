package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// requestGoldenCases are the exact wire frames of every request op,
// shared by TestRequestGoldenFrames and the FuzzDecodeRequest seed corpus.
var requestGoldenCases = []struct {
	name string
	req  Request
	want string
}{
	{"ping", Request{V: 1, ID: 1, Op: OpPing},
		`{"v":1,"id":1,"op":"ping"}`},
	{"join", Request{V: 1, ID: 2, Op: OpJoin, Join: &JoinParams{Members: []int{0, 3, 9}, Demand: 2.5}},
		`{"v":1,"id":2,"op":"join","join":{"members":[0,3,9],"demand":2.5}}`},
	{"leave", Request{V: 1, ID: 3, Op: OpLeave, Leave: &LeaveParams{Session: 7}},
		`{"v":1,"id":3,"op":"leave","leave":{"session":7}}`},
	{"rebalance", Request{V: 1, ID: 4, Op: OpRebalance},
		`{"v":1,"id":4,"op":"rebalance"}`},
	{"snapshot", Request{V: 1, ID: 5, Op: OpSnapshot, Snapshot: &SnapshotParams{Refresh: true}},
		`{"v":1,"id":5,"op":"snapshot","snapshot":{"refresh":true}}`},
	{"snapshot-cached", Request{V: 1, ID: 6, Op: OpSnapshot},
		`{"v":1,"id":6,"op":"snapshot"}`},
	{"stats", Request{V: 1, ID: 7, Op: OpStats},
		`{"v":1,"id":7,"op":"stats"}`},
	{"metrics", Request{V: 1, ID: 8, Op: OpMetrics},
		`{"v":1,"id":8,"op":"metrics"}`},
	{"drain", Request{V: 1, ID: 9, Op: OpDrain},
		`{"v":1,"id":9,"op":"drain"}`},
	{"fault-down", Request{V: 1, ID: 12, Op: OpFault, Fault: &FaultParams{From: 0, To: 1, Kind: FaultLinkDown}},
		`{"v":1,"id":12,"op":"fault","fault":{"from":0,"to":1,"kind":"link-down"}}`},
	{"fault-drift", Request{V: 1, ID: 13, Op: OpFault, Fault: &FaultParams{From: 4, To: 7, Kind: FaultDrift, Factor: 0.5}},
		`{"v":1,"id":13,"op":"fault","fault":{"from":4,"to":7,"kind":"drift","factor":0.5}}`},
	{"watch", Request{V: 1, ID: 10, Op: OpWatch, Watch: &WatchParams{HeartbeatSeconds: 2.5}},
		`{"v":1,"id":10,"op":"watch","watch":{"heartbeat_seconds":2.5}}`},
	{"watch-defaults", Request{V: 1, ID: 11, Op: OpWatch},
		`{"v":1,"id":11,"op":"watch"}`},
}

// TestRequestGoldenFrames pins the exact wire bytes of every request op: the
// frames ARE the protocol, so an accidental field rename or tag change must
// fail here, not in a cross-version daemon pairing.
func TestRequestGoldenFrames(t *testing.T) {
	for _, tc := range requestGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := EncodeFrame(&tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimSuffix(string(frame), "\n"); got != tc.want {
				t.Fatalf("frame mismatch:\n got  %s\n want %s", got, tc.want)
			}
			if !bytes.HasSuffix(frame, []byte("\n")) {
				t.Fatal("frame not newline-terminated")
			}
			back, err := DecodeRequest([]byte(tc.want))
			if err != nil {
				t.Fatalf("decode golden frame: %v", err)
			}
			if !reflect.DeepEqual(back, &tc.req) {
				t.Fatalf("round-trip mismatch:\n got  %+v\n want %+v", back, &tc.req)
			}
		})
	}
}

// TestResponseGoldenFrames pins the wire bytes of every response result type.
func TestResponseGoldenFrames(t *testing.T) {
	tree := WireTree{Pairs: [][2]int{{0, 1}, {1, 2}}, Rate: 1.25, Hops: 3}
	placement := WirePlacement{Session: 7, Epoch: 9, Rate: 1.25, Members: []int{0, 3, 9}, Tree: tree}
	cases := []struct {
		name string
		resp Response
		want string
	}{
		{"error", Response{V: 1, ID: 1, Code: ErrCodeUnknownSession, Error: "no live session with token 9"},
			`{"v":1,"id":1,"ok":false,"code":"unknown-session","error":"no live session with token 9"}`},
		{"ping", Response{V: 1, ID: 2, OK: true, Ping: &PingResult{Protocol: 1, Draining: true}},
			`{"v":1,"id":2,"ok":true,"ping":{"protocol":1,"draining":true}}`},
		{"join", Response{V: 1, ID: 3, OK: true, Join: &JoinResult{Placement: placement}},
			`{"v":1,"id":3,"ok":true,"join":{"placement":{"session":7,"epoch":9,"rate":1.25,"members":[0,3,9],"tree":{"pairs":[[0,1],[1,2]],"rate":1.25,"hops":3}}}}`},
		{"leave", Response{V: 1, ID: 4, OK: true, Leave: &LeaveResult{Session: 7, Active: 2}},
			`{"v":1,"id":4,"ok":true,"leave":{"session":7,"active":2}}`},
		{"rebalance", Response{V: 1, ID: 5, OK: true, Rebalance: &RebalanceResult{Epoch: 11, Placements: []WirePlacement{placement}}},
			`{"v":1,"id":5,"ok":true,"rebalance":{"epoch":11,"placements":[{"session":7,"epoch":9,"rate":1.25,"members":[0,3,9],"tree":{"pairs":[[0,1],[1,2]],"rate":1.25,"hops":3}}]}}`},
		{"snapshot", Response{V: 1, ID: 6, OK: true, Snapshot: &SnapshotResult{
			Epoch:      9,
			Sessions:   []WireAllocation{{Session: 7, Demand: 2, Rate: 1.25, Members: []int{0, 3, 9}, Trees: []WireTree{tree}}},
			Throughput: 2.5, MinRate: 1.25, MaxCongestion: 0.5}},
			`{"v":1,"id":6,"ok":true,"snapshot":{"epoch":9,"sessions":[{"session":7,"demand":2,"rate":1.25,"members":[0,3,9],"trees":[{"pairs":[[0,1],[1,2]],"rate":1.25,"hops":3}]}],"throughput":2.5,"min_rate":1.25,"max_congestion":0.5}}`},
		{"metrics", Response{V: 1, ID: 7, OK: true, Metrics: &MetricsResult{Text: "overcastd_active_sessions 1\n"}},
			`{"v":1,"id":7,"ok":true,"metrics":{"text":"overcastd_active_sessions 1\n"}}`},
		{"drain", Response{V: 1, ID: 8, OK: true, Drain: &DrainResult{Active: 3}},
			`{"v":1,"id":8,"ok":true,"drain":{"active":3}}`},
		{"fault", Response{V: 1, ID: 12, OK: true, Fault: &FaultResult{From: 0, To: 1, Kind: FaultLinkDown, Capacity: 1e-4, Epoch: 5, UnderlayEvents: 2}},
			`{"v":1,"id":12,"ok":true,"fault":{"from":0,"to":1,"kind":"link-down","capacity":0.0001,"epoch":5,"underlay_events":2}}`},
		{"watch-initial", Response{V: 1, ID: 9, OK: true, Watch: &WatchEvent{Seq: 1, Epoch: 9, Snapshot: &SnapshotResult{
			Epoch:      9,
			Sessions:   []WireAllocation{{Session: 7, Demand: 2, Rate: 1.25, Members: []int{0, 3, 9}, Trees: []WireTree{tree}}},
			Throughput: 2.5, MinRate: 1.25, MaxCongestion: 0.5}}},
			`{"v":1,"id":9,"ok":true,"watch":{"seq":1,"epoch":9,"snapshot":{"epoch":9,"sessions":[{"session":7,"demand":2,"rate":1.25,"members":[0,3,9],"trees":[{"pairs":[[0,1],[1,2]],"rate":1.25,"hops":3}]}],"throughput":2.5,"min_rate":1.25,"max_congestion":0.5}}}`},
		{"watch-heartbeat", Response{V: 1, ID: 10, OK: true, Watch: &WatchEvent{Seq: 4, Epoch: 9, Heartbeat: true}},
			`{"v":1,"id":10,"ok":true,"watch":{"seq":4,"epoch":9,"heartbeat":true}}`},
		{"watch-slow-consumer", Response{V: 1, ID: 11, Code: ErrCodeSlowConsumer, Error: "watch stream fell more than 64 events behind; reconnect and resync"},
			`{"v":1,"id":11,"ok":false,"code":"slow-consumer","error":"watch stream fell more than 64 events behind; reconnect and resync"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := EncodeFrame(&tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimSuffix(string(frame), "\n"); got != tc.want {
				t.Fatalf("frame mismatch:\n got  %s\n want %s", got, tc.want)
			}
			back, err := DecodeResponse([]byte(tc.want))
			if err != nil {
				t.Fatalf("decode golden frame: %v", err)
			}
			if !reflect.DeepEqual(back, &tc.resp) {
				t.Fatalf("round-trip mismatch:\n got  %+v\n want %+v", back, &tc.resp)
			}
		})
	}
}

// TestStatsResponseRoundTrip covers the one response body with nested library
// types (overcast.AllocatorStats): a full marshal/unmarshal must preserve
// every counter, including the plane block satellite-exported on the root
// API.
func TestStatsResponseRoundTrip(t *testing.T) {
	in := Response{V: 1, ID: 12, OK: true, Stats: &StatsResult{
		Active: 2, Admitted: 5, Epoch: 17, MaxCongestion: 0.75,
		Daemon: DaemonStats{
			RPCs:              map[string]int{"join": 5, "leave": 3, "invalid": 1},
			AdmissionRejected: 1, SnapshotsSaved: 2, Restored: true,
			UptimeSeconds: 12.5, Draining: false,
		},
	}}
	in.Stats.Allocator.Joins = 5
	in.Stats.Allocator.WarmRefreshes = 4
	in.Stats.Allocator.WarmFallbacks = 1
	in.Stats.Allocator.Plane.Sources = 40
	in.Stats.Allocator.Plane.Requests = 200
	frame, err := EncodeFrame(&in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResponse(bytes.TrimSuffix(frame, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, &in) {
		t.Fatalf("round-trip mismatch:\n got  %+v\n want %+v", back, &in)
	}
	if got := back.Stats.Allocator.Plane.Dedup(); got != 5 {
		t.Fatalf("plane dedup through the wire = %v, want 5", got)
	}
}

// requestRejectionCases are malformed request frames, one per rejection
// class, with the code and recovered id each must be rejected with; shared by
// TestDecodeRequestRejections and the FuzzDecodeRequest seed corpus.
var requestRejectionCases = []struct {
	name     string
	frame    string
	wantCode string
	wantID   uint64
}{
	{"malformed-json", `{"v":1,"op":`, ErrCodeBadFrame, 0},
	{"not-json", `ping please`, ErrCodeBadFrame, 0},
	{"wrong-type", `{"v":"one","op":"ping"}`, ErrCodeBadFrame, 0},
	{"version-zero", `{"op":"ping","id":4}`, ErrCodeBadVersion, 4},
	{"version-future", `{"v":2,"id":9,"op":"ping"}`, ErrCodeBadVersion, 9},
	{"unknown-op", `{"v":1,"id":5,"op":"explode"}`, ErrCodeUnknownOp, 5},
	{"join-missing-params", `{"v":1,"id":6,"op":"join"}`, ErrCodeBadParams, 6},
	{"leave-missing-params", `{"v":1,"id":7,"op":"leave"}`, ErrCodeBadParams, 7},
	{"watch-negative-heartbeat", `{"v":1,"id":8,"op":"watch","watch":{"heartbeat_seconds":-1}}`, ErrCodeBadParams, 8},
	{"fault-missing-params", `{"v":1,"id":9,"op":"fault"}`, ErrCodeBadParams, 9},
	{"fault-unknown-kind", `{"v":1,"id":10,"op":"fault","fault":{"from":0,"to":1,"kind":"sever"}}`, ErrCodeBadParams, 10},
	{"fault-bad-drift-factor", `{"v":1,"id":11,"op":"fault","fault":{"from":0,"to":1,"kind":"drift","factor":-2}}`, ErrCodeBadParams, 11},
	{"fault-zero-drift-factor", `{"v":1,"id":12,"op":"fault","fault":{"from":0,"to":1,"kind":"drift"}}`, ErrCodeBadParams, 12},
}

// TestDecodeRequestRejections covers every rejection class with its code.
func TestDecodeRequestRejections(t *testing.T) {
	for _, tc := range requestRejectionCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest([]byte(tc.frame))
			if err == nil {
				t.Fatalf("decode %q succeeded, want %s", tc.frame, tc.wantCode)
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FrameError", err)
			}
			if fe.Code != tc.wantCode {
				t.Fatalf("code = %s, want %s (%v)", fe.Code, tc.wantCode, err)
			}
			if fe.ID != tc.wantID {
				t.Fatalf("recovered id = %d, want %d", fe.ID, tc.wantID)
			}
		})
	}
}

// requestRejectionCodes are the ErrCode* classes DecodeRequest may reject a
// frame with; the other codes are outcomes of serving a well-formed request.
var requestRejectionCodes = map[string]bool{
	ErrCodeBadFrame:   true,
	ErrCodeBadVersion: true,
	ErrCodeUnknownOp:  true,
	ErrCodeBadParams:  true,
}

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder, seeded with
// every golden and rejected frame. It must never panic, and must either
// reject the frame with a *FrameError carrying a request rejection code, or
// return a request that EncodeFrame re-encodes into a frame decoding to an
// equal request.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range requestGoldenCases {
		f.Add([]byte(tc.want))
	}
	for _, tc := range requestRejectionCases {
		f.Add([]byte(tc.frame))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := DecodeRequest(frame)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FrameError", err)
			}
			if !requestRejectionCodes[fe.Code] {
				t.Fatalf("rejection code %q is not a request rejection class (%v)", fe.Code, err)
			}
			if req != nil {
				t.Fatalf("rejected frame also returned request %+v", req)
			}
			return
		}
		if req == nil {
			t.Fatal("accepted frame returned a nil request")
		}
		out, err := EncodeFrame(req)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		back, err := DecodeRequest(bytes.TrimSuffix(out, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded frame %s rejected: %v", out, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round-trip mismatch:\n got  %+v\n want %+v", back, req)
		}
	})
}

// TestDecodeResponseVersionCheck: responses version-gate like requests.
func TestDecodeResponseVersionCheck(t *testing.T) {
	if _, err := DecodeResponse([]byte(`{"v":3,"id":1,"ok":true}`)); err == nil {
		t.Fatal("future-version response decoded")
	}
	if _, err := DecodeResponse([]byte(`{"ok":`)); err == nil {
		t.Fatal("malformed response decoded")
	}
}

// TestEncodeFrameTooLarge: oversized frames are refused at encode time.
func TestEncodeFrameTooLarge(t *testing.T) {
	huge := &MetricsResult{Text: strings.Repeat("x", MaxFrameBytes)}
	if _, err := EncodeFrame(&Response{V: 1, OK: true, Metrics: huge}); err == nil {
		t.Fatal("oversized frame encoded")
	}
}

// TestDecodeRequestTooLarge: oversized request frames are bad frames.
func TestDecodeRequestTooLarge(t *testing.T) {
	line := []byte(fmt.Sprintf(`{"v":1,"op":"ping","pad":%q}`, strings.Repeat("x", MaxFrameBytes)))
	_, err := DecodeRequest(line)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Code != ErrCodeBadFrame {
		t.Fatalf("oversized request: got %v, want %s", err, ErrCodeBadFrame)
	}
}

// TestUnknownFieldsIgnored: a v1 decoder must tolerate unknown fields so v1.x
// servers can add optional result fields without breaking older clients.
func TestUnknownFieldsIgnored(t *testing.T) {
	req, err := DecodeRequest([]byte(`{"v":1,"id":3,"op":"ping","future":{"x":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPing || req.ID != 3 {
		t.Fatalf("decoded %+v", req)
	}
}

// TestPersistedStateVersioned: the crash-recovery state file shares the
// protocol's versioning discipline.
func TestPersistedStateVersioned(t *testing.T) {
	raw, err := json.Marshal(&persistedState{V: ProtocolVersion, NextToken: 3,
		Sessions: []persistedSession{{Token: 1, Members: []int{0, 1}, Demand: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"next_token":3,"sessions":[{"token":1,"members":[0,1],"demand":1}]}`
	if string(raw) != want {
		t.Fatalf("state file format drifted:\n got  %s\n want %s", raw, want)
	}
}
