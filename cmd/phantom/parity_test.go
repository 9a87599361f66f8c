package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"phantom/internal/service"
)

// TestServedOutputMatchesCLI pins the acceptance contract of the
// serving subsystem: for the same request, the HTTP result's "output"
// field is byte-identical to what the phantom CLI prints — cold, and
// again from the cache. Both front ends render through
// service.Execute, so this test guards the *wiring* (flag → Request
// mapping, normalization, cache copy-out), not two implementations.
// Every catalog experiment must have a case.
func TestServedOutputMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv := service.NewServer(service.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		args    []string // subcommand and its flags
		request string
	}{
		{
			"table1",
			[]string{"table1", "-arch", "zen2", "-trials", "2"},
			`{"experiment":"table1","archs":["zen2"],"trials":2}`,
		},
		{
			"chain",
			[]string{"chain", "-arch", "zen2", "-seed", "3"},
			`{"experiment":"chain","archs":["zen2"],"seed":3}`,
		},
		{
			"sls (explicit vs defaulted request)",
			[]string{"sls"},
			`{"experiment":"sls","archs":["all"],"seed":1}`,
		},
		{
			"table1 (arch order is the server's)",
			[]string{"table1", "-arch", "zen4,zen2", "-trials", "2"},
			`{"experiment":"table1","archs":["zen4","zen2"],"trials":2}`,
		},
		{"fig6", []string{"fig6", "-arch", "zen2"}, `{"experiment":"fig6","archs":["zen2"]}`},
		{"fig7", []string{"fig7", "-seed", "3", "-samples", "4"}, `{"experiment":"fig7","seed":3,"samples":4}`},
		{"covert", []string{"covert", "-arch", "zen2", "-bits", "64", "-runs", "2"}, `{"experiment":"covert","archs":["zen2"],"bits":64,"runs":2}`},
		{"kaslr", []string{"kaslr", "-arch", "zen2", "-runs", "2"}, `{"experiment":"kaslr","archs":["zen2"],"runs":2}`},
		{"physmap", []string{"physmap", "-arch", "zen1", "-runs", "1"}, `{"experiment":"physmap","archs":["zen1"],"runs":1}`},
		{"physaddr", []string{"physaddr", "-runs", "1"}, `{"experiment":"physaddr","runs":1}`},
		{"mds", []string{"mds", "-runs", "1", "-bytes", "64"}, `{"experiment":"mds","runs":1,"bytes":64}`},
		{"mitigations", []string{"mitigations", "-arch", "zen1"}, `{"experiment":"mitigations","archs":["zen1"]}`},
		{"report", []string{"report", "-runs", "1", "-bits", "16"}, `{"experiment":"report","runs":1,"bits":16}`},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.args[0]] = true
	}
	for _, e := range service.Catalog() {
		if !covered[e.Name] {
			t.Errorf("catalog experiment %q has no CLI/server parity case", e.Name)
		}
	}
	for _, c := range cases {
		var cli bytes.Buffer
		if code := realMainCtx(context.Background(), c.args, &cli, io.Discard); code != 0 {
			t.Fatalf("%s: CLI exit %d", c.name, code)
		}
		for round, wantCached := range []bool{false, true} {
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(c.request))
			if err != nil {
				t.Fatalf("%s: POST: %v", c.name, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
			}
			var res service.Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.Output != cli.String() {
				t.Errorf("%s round %d: served output differs from CLI stdout\nserved: %q\ncli:    %q",
					c.name, round, res.Output, cli.String())
			}
			if res.Cached != wantCached {
				t.Errorf("%s round %d: cached = %v, want %v", c.name, round, res.Cached, wantCached)
			}
		}
	}
}

// TestCLIDefaultsMatchServer proves the two front ends cannot disagree
// on defaults: every subcommand with no flags normalizes to the same
// Request, and so the same content address, as the server's bare
// {"experiment": name}.
func TestCLIDefaultsMatchServer(t *testing.T) {
	for _, e := range service.Catalog() {
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		request := e.Flags(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		cli, err := request().Normalize()
		if err != nil {
			t.Fatalf("%s: CLI defaults do not normalize: %v", e.Name, err)
		}
		var served service.Request
		if err := json.Unmarshal([]byte(`{"experiment":"`+e.Name+`"}`), &served); err != nil {
			t.Fatal(err)
		}
		served, err = served.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cli, served) || cli.Key() != served.Key() {
			t.Errorf("%s: CLI defaults %+v (key %s) differ from the server's %+v (key %s)",
				e.Name, cli, cli.Key(), served, served.Key())
		}
	}
}

// TestCatalogCoverage: every catalog entry is a CLI subcommand with -h
// text, a `phantom help` line, and a served catalog entry.
func TestCatalogCoverage(t *testing.T) {
	var help bytes.Buffer
	usage(&help)
	ts := httptest.NewServer(service.NewServer(service.Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/arches")
	if err != nil {
		t.Fatal(err)
	}
	var served struct {
		Experiments []string `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range service.Catalog() {
		if _, ok := command(e.Name); !ok {
			t.Errorf("%s: no CLI subcommand", e.Name)
		}
		var flags bytes.Buffer
		if code := realMainCtx(context.Background(), []string{e.Name, "-h"}, io.Discard, &flags); code != 0 || !strings.Contains(flags.String(), "-seed") {
			t.Errorf("%s -h: exit %d, text %q", e.Name, code, flags.String())
		}
		if e.Usage == "" || !strings.Contains(help.String(), "\n  "+e.Name+" ") {
			t.Errorf("%s: no usage line in `phantom help`", e.Name)
		}
		found := false
		for _, name := range served.Experiments {
			found = found || name == e.Name
		}
		if !found {
			t.Errorf("%s: missing from the served catalog %v", e.Name, served.Experiments)
		}
	}
}
