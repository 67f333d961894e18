package core

// The wave runner is where goroutines start.
func runWave(jobs []func()) {
	for _, j := range jobs {
		go j()
	}
}
