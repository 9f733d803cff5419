package config

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseMain: no main-configuration text may panic the parser, and
// whatever parses names a workload definition.
func FuzzParseMain(f *testing.F) {
	for _, seed := range []string{
		"",
		"workload = IIS\nmiddleware = none\nfault_list = faults.lst\n",
		"workload = IIS\nmiddleware = watchd-v2\nfault_list = faults.lst\n",
		"workload = Apache1\nmiddleware = none\n",
		"workload = IIS\nmiddleware = mscs\nfault_list = faults.lst\n",
		"workload = SQL\nmiddleware = watchd\nwatchd_version = 1\n",
		"# experiment configuration\nworkload = Apache1\nmiddleware = watchd\nwatchd_version = 2\n" +
			"server_up_timeout = 12s\nrun_deadline = 2m\nfault_list = faults.lst\nresults = out.json\n",
		"middleware = standalone", "middleware = MSCS",
		"bogus line without equals", "workload = Netscape", "middleware = tandem",
		"watchd_version = 9", "server_up_timeout = -3s", "server_up_timeout = soon",
		"run_deadline = 0s", "color = red",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseMain(strings.NewReader(text))
		if err != nil {
			return
		}
		if _, err := cfg.Definition(); err != nil {
			t.Fatalf("ParseMain(%q) accepted a config with no definition: %v", text, err)
		}
	})
}

// FuzzParseFaultList: a fault list that parses writes back (WriteFaultList)
// to a list that parses to the same specs.
func FuzzParseFaultList(f *testing.F) {
	for _, seed := range []string{
		"",
		"ReadFile 1 1 flip",
		"ReadFile 1 1 flip\nGetVersionExA 0 1 zero\nCreateFileA 0 1 ones\nWriteFile 2 1 flip\n",
		"# header\n\nReadFile 0 1 zero\n   \n# tail\n",
		"# fn param invocation type [node=<i>]\nDTSClusterNodeCrash 0 5 flip\nDTSClusterServiceCrash 0 5 flip node=1\n" +
			"DTSClusterPartition 15 5 flip node=2\nReadFile 1 1 flip\nReadFile 1 1 zero node=1\nTransactNamedPipe 2 1 ones node=2\n",
		"DTSChaosPanic 0 1 flip\nDTSChaosHang 0 1 flip\n",
		"ReadFile 2 1", "ReadFile two 1 zero", "ReadFile -1 1 zero", "ReadFile 2 0 zero",
		"ReadFile 2 1 scramble", "ReadFile 2 1 zero trailer", "ReadFile 2 1 ZERO node=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := ParseFaultList(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFaultList(&buf, specs); err != nil {
			t.Fatal(err)
		}
		again, err := ParseFaultList(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("written list %q does not parse: %v", buf.String(), err)
		}
		if !slices.Equal(specs, again) {
			t.Fatalf("round trip drift:\n%+v\n%+v", specs, again)
		}
	})
}
