package smallbuffers_test

import (
	"context"
	"net/http"
	"testing"

	sb "smallbuffers"
)

// TestServingFacade exercises the Tier-3 surface end to end: digest the
// scenario, serve it over HTTP via NewServer, and check the served
// results digest against a local run.
func TestServingFacade(t *testing.T) {
	src := `{
		"name": "facade-serving",
		"topology": {"name": "path", "params": {"n": 16}},
		"protocol": {"name": "ppts"},
		"adversary": {"name": "random", "params": {"d": 2}},
		"bound": {"rho": "1/2", "sigma": 2},
		"rounds": 120,
		"seeds": [1, 2]
	}`
	sc, err := sb.ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	scenarioDigest, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	localDigest := agg.Digest()
	if localDigest != sb.SweepResultsDigest(agg.Records()) {
		t.Error("SweepResultsDigest disagrees with SweepResult.Digest")
	}

	code, rep := submit(t, startDaemon(t, sb.ServerConfig{Workers: 2}), []byte(src))
	if code != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d (%s)", code, rep.Error)
	}
	if rep.Digest != scenarioDigest {
		t.Errorf("served scenario digest %s, local %s", rep.Digest, scenarioDigest)
	}
	if rep.ResultsDigest != localDigest {
		t.Errorf("served results digest %s, local %s", rep.ResultsDigest, localDigest)
	}

	cat := sb.Catalog()
	if len(cat.Protocols) == 0 || len(cat.Adversaries) == 0 {
		t.Errorf("catalog incomplete: %d protocols, %d adversaries", len(cat.Protocols), len(cat.Adversaries))
	}
}
