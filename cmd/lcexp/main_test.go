package main

import (
	"runtime"
	"testing"
)

// TestResolveJobs pins the -jobs/-parallel rule: the default pool is every
// core, -parallel alone must be usable on a multi-core box (it takes the
// default down to one cell at a time), and an explicit pool beside
// -parallel is taken as given.
func TestResolveJobs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		jobs     int
		parallel bool
		want     int
		wantErr  bool
	}{
		{jobs: 0, parallel: false, want: procs},
		{jobs: 0, parallel: true, want: 1},
		{jobs: 1, parallel: true, want: 1},
		{jobs: 1, parallel: false, want: 1},
		{jobs: 4, parallel: false, want: 4},
		{jobs: 2, parallel: true, want: 2},
		{jobs: 4, parallel: true, want: 4},
		{jobs: -1, parallel: false, wantErr: true},
		{jobs: -1, parallel: true, wantErr: true},
	} {
		got, err := resolveJobs(tc.jobs, tc.parallel)
		if (err != nil) != tc.wantErr {
			t.Fatalf("resolveJobs(%d, %v): err = %v, wantErr %v", tc.jobs, tc.parallel, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Fatalf("resolveJobs(%d, %v) = %d, want %d", tc.jobs, tc.parallel, got, tc.want)
		}
	}
}
