package core

import "testing"

// FuzzParseJobKey: a job key that parses renders back (PlanJob.Key) to a
// key that parses to the same job.
func FuzzParseJobKey(f *testing.F) {
	for _, seed := range []string{
		"ReadFile/0/1/1", "WriteFile/0/1/2/probe", "b/1/1/2", "ReadFile/1/1/2/1",
		"DTSClusterPartition/15/5/3/2", "TransactNamedPipe/2/1/2/2/probe",
		"ReadFile/0/1", "ReadFile/0/1/1/probe/probe", "ReadFile/-1/1/1", "ReadFile/0/0/1",
		"ReadFile/0/1/0", "ReadFile/0/1/1/-1", "/probe", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, key string) {
		job, err := ParseJobKey(key)
		if err != nil {
			return
		}
		again, err := ParseJobKey(job.Key())
		if err != nil {
			t.Fatalf("ParseJobKey(%q) = %+v, whose key %q does not parse: %v", key, job, job.Key(), err)
		}
		if again != job {
			t.Fatalf("round trip drift: %+v -> %q -> %+v", job, job.Key(), again)
		}
	})
}
