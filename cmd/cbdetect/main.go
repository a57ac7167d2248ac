// Command cbdetect demonstrates the two breakpoint-insertion
// methodologies of section 5 of the paper on instrumented scenarios:
//
//	cbdetect -scenario race        # Methodology I: a data-race report
//	cbdetect -scenario deadlock    # Methodology I: a deadlock report
//	cbdetect -scenario contention  # Methodology II: the lock-contention list
//
// Each scenario runs a small concurrent program under the conflict
// detectors (Eraser-style lockset + vector-clock happens-before + lock
// contention/order), prints the CalFuzzer-style report, and shows the
// concurrent-breakpoint insertion it suggests.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"cbreak/internal/detect"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

func main() {
	scenario := flag.String("scenario", "race", "race, deadlock, contention, atomicity, or lostnotify")
	flag.Parse()
	switch *scenario {
	case "race":
		raceScenario()
	case "deadlock":
		deadlockScenario()
	case "contention":
		contentionScenario()
	case "atomicity":
		atomicityScenario()
	case "lostnotify":
		lostNotifyScenario()
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
}

// atomicityScenario runs the StringBuffer stale-length pattern inside a
// declared atomic block; the Atomizer-style checker names the
// interfering site.
func atomicityScenario() {
	d := detect.New(detect.WithEraser(false), detect.WithHappensBefore(false))
	sp := memory.NewSpace()
	d.Instrument(sp)
	length := memory.NewCell(sp, "sb.length", 32)

	step := make(chan struct{})
	go func() { // the interferer
		<-step
		length.Store("StringBuffer.java:239", 0) // setLength(0)
		step <- struct{}{}
	}()
	d.BeginAtomic("StringBuffer.append")
	length.Load("StringBuffer.java:444") // int len = sb.length()
	step <- struct{}{}                   // the unlucky interleaving
	<-step
	length.Load("StringBuffer.java:449") // sb.getChars(0, len, ...)
	d.EndAtomic()

	fmt.Println(d.FormatAll())
	fmt.Println()
	fmt.Println("Methodology I: order the interferer into the window:")
	fmt.Println(`  cbreak.TriggerHereAnd(cbreak.NewAtomicityTrigger("trigger3", sb), true, opts, func(){ sb.SetLength(0) })`)
	fmt.Println(`  cbreak.TriggerHere(cbreak.NewAtomicityTrigger("trigger3", sb), false, 0) // between length() and getChars()`)
}

// lostNotifyScenario shows the missed-notification candidate report the
// Methodology II walk-through starts from.
func lostNotifyScenario() {
	d := detect.New()
	mon := locks.NewMutex("AsyncAppender.this")
	cv := locks.NewCond("dataAvailable", mon)
	d.InstrumentConds(cv)

	// The dispatcher decided to sleep; setBufferSize's notification
	// fires first and is lost; the dispatcher then waits.
	cv.NotifyAt("AsyncAppender.java:236")
	mon.Lock()
	cv.WaitTimeoutAt(10*time.Millisecond, "AsyncAppender.java:309")
	mon.Unlock()

	fmt.Println(d.FormatAll())
	fmt.Println()
	fmt.Println("Methodology II: force the notify before the wait with a NewNotifyTrigger")
	fmt.Println("pair and watch the stall become deterministic (`cbtables -table log4j`).")
}

// raceScenario is Figure 1 of the paper under the detectors: foo writes
// p.x while bar reads it, unsynchronized.
func raceScenario() {
	d := detect.New()
	sp := memory.NewSpace()
	d.Instrument(sp)
	x := memory.NewCell(sp, "p.x", 0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); x.Store("sample/Test1.go:3", 10) }() // foo
	go func() { defer wg.Done(); x.Load("sample/Test1.go:9") }()      // bar
	wg.Wait()

	fmt.Println(d.FormatAll())
	fmt.Println()
	fmt.Println("Methodology I: insert at the two reported sites:")
	fmt.Println(`  cbreak.TriggerHere(cbreak.NewConflictTrigger("trigger1", p), true, 0)   // before the read`)
	fmt.Println(`  cbreak.TriggerHere(cbreak.NewConflictTrigger("trigger1", p), false, 0)  // before the write`)
}

// deadlockScenario is Figure 2 of the paper under the detectors: the
// Jigsaw killClients / clientConnectionFinished lock inversion.
func deadlockScenario() {
	d := detect.New()
	factory := locks.NewMutex("this")
	csList := locks.NewMutex("csList")
	factory.Observe(d)
	csList.Observe(d)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // clientConnectionFinished
		defer wg.Done()
		csList.LockAt("SocketClientFactory.java:623")
		//cbvet:ignore lockorder intentional inversion: this demo exists to reproduce the Jigsaw deadlock
		factory.LockAt("SocketClientFactory.java:574")
		factory.Unlock()
		csList.Unlock()
	}()
	go func() { // killClients
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		factory.LockAt("SocketClientFactory.java:867")
		//cbvet:ignore lockorder intentional inversion: this demo exists to reproduce the Jigsaw deadlock
		csList.LockAt("SocketClientFactory.java:872")
		csList.Unlock()
		factory.Unlock()
	}()
	wg.Wait()

	fmt.Println(d.FormatAll())
	fmt.Println()
	fmt.Println("Methodology I: insert at the two reported sites:")
	fmt.Println(`  cbreak.TriggerHere(cbreak.NewDeadlockTrigger("trigger2", csList, this), true, 0)`)
	fmt.Println(`  cbreak.TriggerHere(cbreak.NewDeadlockTrigger("trigger2", this, csList), false, 0)`)
}

// contentionScenario mirrors the log4j walk-through: several threads
// contend for the AsyncAppender monitor from the four sites of section
// 5; the report lists the contention pairs a developer then tries one
// by one.
func contentionScenario() {
	d := detect.New()
	monitor := locks.NewMutex("AsyncAppender.this")
	monitor.Observe(d)

	sites := []string{
		"org/apache/log4j/AsyncAppender.java:line 100",
		"org/apache/log4j/AsyncAppender.java:line 236",
		"org/apache/log4j/AsyncAppender.java:line 277",
		"org/apache/log4j/AsyncAppender.java:line 309",
	}
	var wg sync.WaitGroup
	for _, site := range sites {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				monitor.LockAt(site)
				time.Sleep(100 * time.Microsecond)
				monitor.UnlockAt(site)
			}
		}(site)
	}
	wg.Wait()

	for _, r := range d.ReportsOf(detect.KindContention) {
		fmt.Println(r.Format())
		fmt.Println()
	}
	fmt.Println("Methodology II: insert a breakpoint for each pair, try both")
	fmt.Println("resolve orders, and keep the pair whose forced order makes the")
	fmt.Println("Heisenbug (the system stall) reproducible — see")
	fmt.Println("`cbtables -table log4j` for the resulting table.")
}
