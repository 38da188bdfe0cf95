package protocol

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"plos/internal/core"
	"plos/internal/obs"
	"plos/internal/transport"
)

// flightConfig is sweepConfig with a flight recorder attached; returns the
// config, the registry, and the JSONL buffer.
func flightConfig() (ServerConfig, *obs.Registry, *strings.Builder) {
	cfg := sweepConfig()
	reg := obs.NewRegistry()
	var buf strings.Builder
	reg.SetFlightRecorder(obs.NewFlightRecorder(&buf, 0))
	cfg.Core.Obs = reg
	return cfg, reg, &buf
}

// TestWireConfigRequestsTelemetry: the telemetry piggyback is requested iff
// the server observer has a flight recorder — a plain observer (or none)
// keeps the wire bytes identical to the pre-telemetry protocol.
func TestWireConfigRequestsTelemetry(t *testing.T) {
	plain := sweepConfig()
	if wireConfig(plain.Core, plain.Dist).Telemetry {
		t.Error("telemetry requested without an observer")
	}
	plain.Core.Obs = obs.NewRegistry()
	if wireConfig(plain.Core, plain.Dist).Telemetry {
		t.Error("telemetry requested by a flight-less observer")
	}
	withFlight, _, _ := flightConfig()
	if !wireConfig(withFlight.Core, withFlight.Dist).Telemetry {
		t.Error("telemetry not requested with a flight recorder attached")
	}
}

// TestServerFlightRecords: a clean 4-device run must leave a full fleet
// trace — run framing, per-round consensus records, and one device-round
// per fresh telemetry reply.
func TestServerFlightRecords(t *testing.T) {
	users, _ := makeUsers(31, 4)
	cfg, _, buf := flightConfig()
	res, err, _, clientErrs := runPipesFT(t, users, cfg, nil, nil)
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d: %v", i, cerr)
		}
	}
	if res == nil {
		t.Fatal("nil result")
	}
	out := buf.String()
	for _, want := range []string{
		`"rec":"run-start","trainer":"server","users":4`,
		`"rec":"cccp-start"`,
		`"rec":"admm-round"`,
		`"rec":"cccp-iteration"`,
		`"sign_flips":-1`, // the wire server cannot see device signs
		`"rec":"run-end"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight stream missing %s", want)
		}
	}
	for u := 0; u < 4; u++ {
		if !strings.Contains(out, `"rec":"device-round","round":0,"user":`+string(rune('0'+u))) {
			t.Errorf("no device-round record for user %d in round 0", u)
		}
	}
	// Telemetry is cumulative device traffic: bytes must be non-zero.
	if strings.Contains(out, `"bytes":0,`) {
		t.Error("device-round carries zero traffic bytes")
	}
}

// TestTelemetryBitIdentical: requesting the telemetry piggyback (which a
// flight-recording coordinator does) must not move a single bit of the
// trained model — telemetry carries only durations and counts, never
// anything the solver reads. Runs over pipes with fixed slot order, the
// deterministic harness (TCP accept order permutes federated-init and
// consensus summation at ULP level, so wire bit-compares live here).
func TestTelemetryBitIdentical(t *testing.T) {
	users, _ := makeUsers(34, 4)
	plain, err, _, plainErrs := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg, _, buf := flightConfig()
	tel, err, _, telErrs := runPipesFT(t, users, cfg, nil, nil)
	if err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	for i := range users {
		if plainErrs[i] != nil || telErrs[i] != nil {
			t.Fatalf("client %d: plain err %v, telemetry err %v", i, plainErrs[i], telErrs[i])
		}
		if !vecIdentical(plain.Model.W[i], tel.Model.W[i]) {
			t.Errorf("user %d hyperplane differs with telemetry on", i)
		}
	}
	if !vecIdentical(plain.Model.W0, tel.Model.W0) {
		t.Errorf("global hyperplane differs with telemetry on:\nplain %v\n  tel %v",
			plain.Model.W0, tel.Model.W0)
	}
	// The run must actually have exercised the piggyback path.
	if !strings.Contains(buf.String(), `"rec":"device-round"`) {
		t.Error("no device-round records: telemetry was not requested or merged")
	}
}

// TestFlightStaleAndDropRecords: a device whose connection dies mid-run under
// Resume is carried stale (stale-reuse records), then permanently dropped
// (transient + permanent device-drop records, one drop-cause count).
func TestFlightStaleAndDropRecords(t *testing.T) {
	users, _ := makeUsers(32, 4)
	cfg, reg, buf := flightConfig()
	cfg.FT = FTConfig{Resume: true, MaxStale: 2}
	const victim = 1
	wrapClient := func(i int, c transport.Conn) transport.Conn {
		if i == victim {
			return transport.FailAfter(c, 6)
		}
		return c
	}
	res, err, _, _ := runPipesFT(t, users, cfg, nil, wrapClient)
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	if !res.Dropped[victim] {
		t.Fatal("victim not dropped")
	}
	out := buf.String()
	if !strings.Contains(out, `"rec":"stale-reuse","round":`) ||
		!strings.Contains(out, `"user":1,"stale":1}`) {
		t.Error("no stale-reuse record for the victim")
	}
	if !strings.Contains(out, `"rec":"device-drop","user":1,"cause":`) {
		t.Error("no device-drop record for the victim")
	}
	if !strings.Contains(out, `"permanent":false`) {
		t.Error("missing transient device-drop record (first connection failure)")
	}
	if !strings.Contains(out, `"permanent":true`) {
		t.Error("missing permanent device-drop record")
	}
	if got := reg.CounterValue(obs.MetricProtocolDeviceDrops); got != 1 {
		t.Errorf("%s = %d, want 1 (one first-failure per device)", obs.MetricProtocolDeviceDrops, got)
	}
}

// TestFlightQuorumRecord: a drop that breaches the quorum threshold must
// leave a quorum record before the run aborts.
func TestFlightQuorumRecord(t *testing.T) {
	users, _ := makeUsers(33, 4)
	cfg, _, buf := flightConfig()
	cfg.FT.Quorum = 0.9 // ceil(3.6) = 4: any death aborts
	wrapClient := func(i int, c transport.Conn) transport.Conn {
		if i == 2 {
			return transport.FailAfter(c, 6)
		}
		return c
	}
	_, err, _, _ := runPipesFT(t, users, cfg, nil, wrapClient)
	if err == nil {
		t.Fatal("expected quorum abort")
	}
	if !strings.Contains(buf.String(), `"rec":"quorum","active":3,"need":4`) {
		t.Errorf("no quorum record in flight stream:\n%s", buf.String())
	}
}

// TestTrainerRunRecordStreams pins the shared CCCP driver's record stream
// for every trainer that runs it: one run-start naming the trainer and the
// population, one cccp-iteration per round whose objectives are
// TrainInfo.ObjectiveHistory bit for bit, and a run-end that matches
// TrainInfo. Wire trainers report -1 sign flips; in-process ones count them.
func TestTrainerRunRecordStreams(t *testing.T) {
	users, _ := makeUsers(35, 4)
	base := sweepConfig()
	base.Core.MaxCCCPIter = 3
	cases := []struct {
		trainer string
		wire    bool
		run     func(c core.Config) (core.TrainInfo, error)
	}{
		{"centralized", false, func(c core.Config) (core.TrainInfo, error) {
			_, info, err := core.TrainCentralized(users, c)
			return info, err
		}},
		{"distributed", false, func(c core.Config) (core.TrainInfo, error) {
			_, info, err := core.TrainDistributed(users, c, base.Dist)
			return info, err
		}},
		{"async", false, func(c core.Config) (core.TrainInfo, error) {
			_, info, err := core.TrainAsync(users, c, core.AsyncConfig{})
			return info, err
		}},
		{"server", true, func(c core.Config) (core.TrainInfo, error) {
			cfg := base
			cfg.Core = c
			res, err, _, _ := runPipesFT(t, users, cfg, nil, nil)
			if err != nil {
				return core.TrainInfo{}, err
			}
			return res.Info, nil
		}},
		{"agg", true, func(c core.Config) (core.TrainInfo, error) {
			out := runSharded(t, users, [][]int{{0, 1}, {2, 3}},
				AggConfig{Core: c, Dist: base.Dist}, nil, nil, nil)
			if out.aggErr != nil {
				return core.TrainInfo{}, out.aggErr
			}
			return out.agg.Info, nil
		}},
	}
	type rec struct {
		Rec       string  `json:"rec"`
		Trainer   string  `json:"trainer"`
		Users     int     `json:"users"`
		Round     int     `json:"round"`
		Objective float64 `json:"objective"`
		SignFlips int     `json:"sign_flips"`
		Converged bool    `json:"converged"`
		Rounds    int     `json:"rounds"`
	}
	for _, tc := range cases {
		t.Run(tc.trainer, func(t *testing.T) {
			reg := obs.NewRegistry()
			var buf strings.Builder
			reg.SetFlightRecorder(obs.NewFlightRecorder(&buf, 0))
			c := base.Core
			c.Obs = reg
			info, err := tc.run(c)
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			var starts, ends, iters []rec
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var r rec
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("record %q: %v", line, err)
				}
				switch r.Rec {
				case "run-start":
					starts = append(starts, r)
				case "cccp-iteration":
					if len(ends) > 0 {
						t.Errorf("cccp-iteration after run-end: %s", line)
					}
					iters = append(iters, r)
				case "run-end":
					ends = append(ends, r)
				}
			}
			if len(starts) != 1 || starts[0].Trainer != tc.trainer || starts[0].Users != len(users) {
				t.Fatalf("run-start records = %+v, want one for %s with %d users", starts, tc.trainer, len(users))
			}
			if len(iters) != len(info.ObjectiveHistory) || len(iters) != info.CCCPIterations {
				t.Fatalf("%d cccp-iteration records, history %d, CCCPIterations %d",
					len(iters), len(info.ObjectiveHistory), info.CCCPIterations)
			}
			for k, r := range iters {
				if r.Round != k || math.Float64bits(r.Objective) != math.Float64bits(info.ObjectiveHistory[k]) {
					t.Errorf("cccp-iteration %d = round %d objective %v, want round %d objective %v",
						k, r.Round, r.Objective, k, info.ObjectiveHistory[k])
				}
				if tc.wire != (r.SignFlips == -1) || r.SignFlips < -1 {
					t.Errorf("cccp-iteration %d sign_flips = %d (wire trainer: %v)", k, r.SignFlips, tc.wire)
				}
			}
			if len(ends) != 1 {
				t.Fatalf("%d run-end records, want 1", len(ends))
			}
			if e := ends[0]; e.Converged != info.CCCPConverged || e.Rounds != info.CCCPIterations ||
				math.Float64bits(e.Objective) != math.Float64bits(info.Objective) {
				t.Errorf("run-end %+v does not match TrainInfo (converged %v, rounds %d, objective %v)",
					e, info.CCCPConverged, info.CCCPIterations, info.Objective)
			}
		})
	}
}
