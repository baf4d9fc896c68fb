package sentiment

import "strings"

// Extractor derives per-dimension rating scores from free-text reviews, the
// pipeline of §5.1: "we extracted all phrases which include the word
// 'service' and a fixed window of words around it of size 5", scored each
// with VADER, and averaged.
type Extractor struct {
	Analyzer Analyzer
	// Window is the number of words kept on each side of a dimension
	// keyword (the paper uses 5). Zero selects 5.
	Window int
	// Keywords maps a rating dimension name to the words that signal it,
	// e.g. "food" → {food, dish, meal, ...}.
	Keywords map[string][]string
}

// DefaultRestaurantKeywords are the dimension triggers for the Yelp-style
// pipeline (dimensions shown relevant in the domain per Li et al. [39]).
func DefaultRestaurantKeywords() map[string][]string {
	return map[string][]string{
		"food":     {"food", "dish", "dishes", "meal", "menu", "taste", "flavor"},
		"service":  {"service", "staff", "waiter", "waitress", "server"},
		"ambiance": {"ambiance", "atmosphere", "decor", "vibe", "interior"},
	}
}

func (e *Extractor) window() int {
	if e.Window > 0 {
		return e.Window
	}
	return 5
}

// Phrase is one extracted keyword window with its sentiment.
type Phrase struct {
	Dimension string
	Words     []string
	Compound  float64
}

// Phrases extracts every keyword window from the review for every
// configured dimension.
func (e *Extractor) Phrases(review string) []Phrase {
	tokens := Tokenize(review)
	words := make([]string, len(tokens))
	for i, t := range tokens {
		words[i] = t.Lower
	}
	var out []Phrase
	w := e.window()
	for dim, keys := range e.Keywords {
		keySet := make(map[string]bool, len(keys))
		for _, k := range keys {
			keySet[strings.ToLower(k)] = true
		}
		for i, word := range words {
			if !keySet[word] {
				continue
			}
			lo, hi := i-w, i+w+1
			if lo < 0 {
				lo = 0
			}
			if hi > len(tokens) {
				hi = len(tokens)
			}
			phrase := tokens[lo:hi]
			out = append(out, Phrase{
				Dimension: dim,
				Words:     words[lo:hi],
				Compound:  e.Analyzer.compoundOf(phrase, 0),
			})
		}
	}
	return out
}

// Scores averages phrase sentiments per dimension and maps them to the
// rating scale {1..m}. Dimensions with no matching phrase are reported with
// ok=false in the second return.
func (e *Extractor) Scores(review string, m int) (map[string]int, map[string]bool) {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, p := range e.Phrases(review) {
		sums[p.Dimension] += p.Compound
		counts[p.Dimension]++
	}
	scores := make(map[string]int, len(e.Keywords))
	found := make(map[string]bool, len(e.Keywords))
	for dim := range e.Keywords {
		if n := counts[dim]; n > 0 {
			scores[dim] = CompoundToScale(sums[dim]/float64(n), m)
			found[dim] = true
		}
	}
	return scores, found
}
