// Cache recovery: end-to-end demonstration that the semantics'
// observation traces subsume cache side channels (§3.1) — run the
// Figure 1 attack, feed its trace into a concrete set-associative
// cache, and recover the secret byte with flush+reload.
package main

import (
	"fmt"
	"log"
	"slices"

	"pitchfork/spectre"
)

func main() {
	fig, ok := spectre.FigureByID("fig1")
	if !ok {
		log.Fatal("fig1 missing from gallery")
	}
	trace, err := fig.Trace()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim trace: %s\n\n", trace)

	cache, err := spectre.NewCache(64, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	fr := spectre.FlushReload{Cache: cache, ProbeBase: 0x44, Stride: 1, Slots: 256}
	hot := fr.Recover(trace)
	fmt.Printf("hot probe slots: %v\n", hot)
	for _, s := range hot {
		if s > 0x20 { // discount the victim's known in-bounds access
			fmt.Printf("recovered secret byte: %#x (planted Key[1] = 0xA1)\n", s)
		}
	}
	if !slices.Contains(hot, 0xA1) {
		log.Fatalf("flush+reload did not recover the planted Key[1] = 0xA1 (hot slots %v)", hot)
	}
}
