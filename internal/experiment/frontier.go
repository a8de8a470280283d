package experiment

import "sync"

// Frontier hands trial results to one consumer strictly in trial order
// while the trials themselves complete in any order on any goroutine.
// Producers Post each finished trial; the consumer takes them with Next,
// which blocks until the frontier trial — the lowest one not yet
// delivered — has been posted. Each result is released as it is
// delivered. The first error (a failed trial, or Fail) fails the whole
// frontier: Next returns it at once, and producers that check Err before
// claiming more work stop instead of running trials nobody will read.
type Frontier struct {
	mu   sync.Mutex
	cond sync.Cond
	outs []TrialResult
	done []bool
	next int
	err  error
}

// NewFrontier returns a frontier over trials 0..trials-1.
func NewFrontier(trials int) *Frontier {
	f := &Frontier{outs: make([]TrialResult, trials), done: make([]bool, trials)}
	f.cond.L = &f.mu
	return f
}

// Post records trial's completion: its result, or err if it failed.
func (f *Frontier) Post(trial int, res TrialResult, err error) {
	f.mu.Lock()
	if err != nil {
		if f.err == nil {
			f.err = err
		}
	} else {
		f.outs[trial] = res
	}
	f.done[trial] = true
	if err != nil || trial == f.next {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// Fail fails the frontier with err unless it has already failed.
func (f *Frontier) Fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Err returns the error the frontier failed with, or nil.
func (f *Frontier) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Next blocks until the frontier trial has been posted and returns it.
// ok is false once every trial has been delivered or the frontier
// failed; a failure surfaces as the error with ok false.
func (f *Frontier) Next() (res TrialResult, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.err != nil {
			return TrialResult{}, false, f.err
		}
		if f.next >= len(f.done) {
			return TrialResult{}, false, nil
		}
		if f.done[f.next] {
			res = f.outs[f.next]
			f.outs[f.next] = TrialResult{} // release its buffers early
			f.next++
			return res, true, nil
		}
		f.cond.Wait()
	}
}

// Ready reports whether Next would return without blocking.
func (f *Frontier) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err != nil || f.next >= len(f.done) || f.done[f.next]
}

// Delivered returns how many trials Next has handed out.
func (f *Frontier) Delivered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}
