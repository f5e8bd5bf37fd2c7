package runner

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// holdJobs submits n jobs to p that block until release is closed, and
// returns once all n run.
func holdJobs(t *testing.T, p *Pool, n int, release <-chan struct{}) {
	t.Helper()
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(context.Background(), func() {
			started.Done()
			<-release
		}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
}

// A team grows to its limit, the caller included, and never past
// GOMAXPROCS; it takes no processor that a pool job holds; and its
// helpers see the processors crowded once pool jobs join them.
func TestTeam(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	grow := func(team *Team, release <-chan struct{}) int {
		n := 0
		for i := 0; i < 8; i++ {
			if team.Grow(func() { <-release }) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct{ limit, helpers int }{{0, 0}, {1, 0}, {3, 2}, {100, 3}} {
		release := make(chan struct{})
		team := NewTeam(tc.limit)
		if got := grow(team, release); got != tc.helpers {
			t.Errorf("NewTeam(%d) grew %d helpers, want %d", tc.limit, got, tc.helpers)
		}
		close(release)
		team.Wait()
	}

	release := make(chan struct{})
	pool := NewPool(4)
	holdJobs(t, pool, 4, release)
	if got := grow(NewTeam(4), release); got != 0 {
		t.Errorf("grew %d helpers with every processor running a pool job", got)
	}
	close(release)
	pool.Close() // its workers have left the budget when Close returns

	release = make(chan struct{})
	team := NewTeam(4)
	if got := grow(team, release); got != 3 {
		t.Fatalf("grew %d helpers on idle processors, want 3", got)
	}
	if team.Crowded() {
		t.Error("crowded with 3 helpers on 4 processors")
	}
	pool = NewPool(2)
	holdJobs(t, pool, 2, release)
	if !team.Crowded() {
		t.Error("not crowded with 3 helpers and 2 pool jobs on 4 processors")
	}
	close(release)
	pool.Close()
	team.Wait()
	if NewTeam(4).Crowded() {
		t.Error("crowded after every helper and job returned")
	}
}
