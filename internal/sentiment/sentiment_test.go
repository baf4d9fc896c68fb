package sentiment

import (
	"math/rand"
	"testing"

	"subdex/internal/gen"
	"subdex/internal/stats"
)

func TestCompoundPolarity(t *testing.T) {
	var a Analyzer
	if c := a.Compound("the food was excellent"); c <= 0 {
		t.Errorf("positive text scored %v", c)
	}
	if c := a.Compound("the food was terrible"); c >= 0 {
		t.Errorf("negative text scored %v", c)
	}
	if c := a.Compound("we ordered two appetizers"); c != 0 {
		t.Errorf("neutral text scored %v", c)
	}
}

func TestCompoundRange(t *testing.T) {
	texts := []string{
		"absolutely amazing wonderful perfect excellent!!!",
		"horrible terrible awful disgusting vile!!!",
		"",
		"fine",
	}
	var a Analyzer
	for _, tx := range texts {
		if c := a.Compound(tx); c < -1 || c > 1 {
			t.Errorf("compound out of range for %q: %v", tx, c)
		}
	}
}

func TestNegationFlips(t *testing.T) {
	var a Analyzer
	pos := a.Compound("the food was good")
	neg := a.Compound("the food was not good")
	if neg >= 0 {
		t.Errorf("negated positive should be negative, got %v", neg)
	}
	if pos <= 0 {
		t.Fatalf("baseline positive failed: %v", pos)
	}
	// Negation dampens too (|neg| < |pos|, the −0.74 factor).
	if -neg >= pos {
		t.Errorf("negation should dampen: pos=%v neg=%v", pos, neg)
	}
}

func TestBoosterIntensifies(t *testing.T) {
	var a Analyzer
	plain := a.Compound("the food was good")
	boosted := a.Compound("the food was very good")
	damped := a.Compound("the food was slightly good")
	if boosted <= plain {
		t.Errorf("booster failed: %v vs %v", boosted, plain)
	}
	if damped >= plain {
		t.Errorf("damper failed: %v vs %v", damped, plain)
	}
}

func TestCapsAndExclamation(t *testing.T) {
	var a Analyzer
	plain := a.Compound("the food was good")
	caps := a.Compound("the food was GOOD")
	bang := a.Compound("the food was good!!")
	if caps <= plain {
		t.Errorf("ALL-CAPS emphasis failed: %v vs %v", caps, plain)
	}
	if bang <= plain {
		t.Errorf("exclamation emphasis failed: %v vs %v", bang, plain)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("The staff wasn't friendly, REALLY!")
	var words []string
	for _, tk := range toks {
		words = append(words, tk.Lower)
	}
	want := []string{"the", "staff", "wasn't", "friendly", "really"}
	if len(words) != len(want) {
		t.Fatalf("tokens = %v", words)
	}
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", words, want)
		}
	}
	if !toks[4].AllCaps {
		t.Error("REALLY should be flagged ALL-CAPS")
	}
	if toks[0].AllCaps {
		t.Error("The is not ALL-CAPS")
	}
}

func TestCompoundToScale(t *testing.T) {
	if CompoundToScale(-1, 5) != 1 || CompoundToScale(1, 5) != 5 {
		t.Error("extremes must map to scale ends")
	}
	if got := CompoundToScale(0, 5); got != 3 {
		t.Errorf("neutral maps to %d, want 3", got)
	}
	if CompoundToScale(0.5, 1) != 1 {
		t.Error("degenerate scale must clamp to 1")
	}
}

func TestExtractorWindow(t *testing.T) {
	e := Extractor{Keywords: DefaultRestaurantKeywords(), Window: 2}
	phrases := e.Phrases("unrelated words here but the food was excellent indeed and more trailing words")
	if len(phrases) == 0 {
		t.Fatal("no phrase extracted")
	}
	p := phrases[0]
	if p.Dimension != "food" {
		t.Errorf("dimension = %q", p.Dimension)
	}
	if len(p.Words) > 5 { // window 2 both sides + keyword
		t.Errorf("window too wide: %v", p.Words)
	}
	if p.Compound <= 0 {
		t.Errorf("phrase sentiment = %v, want positive", p.Compound)
	}
}

func TestExtractorScores(t *testing.T) {
	e := Extractor{Keywords: DefaultRestaurantKeywords()}
	scores, found := e.Scores(
		"The food was excellent. The service was terrible. No further remarks.", 5)
	if !found["food"] || !found["service"] {
		t.Fatalf("found = %v", found)
	}
	if found["ambiance"] {
		t.Error("ambiance should be missing")
	}
	if scores["food"] <= scores["service"] {
		t.Errorf("food (%d) should outscore service (%d)", scores["food"], scores["service"])
	}
}

// TestPipelineRecoversLatentScores runs the full substitution pipeline:
// generate review text from latent scores, extract ratings, and require a
// strong monotone relationship — the property the paper's VADER pipeline
// needs for the derived food/service/ambiance dimensions to be meaningful.
func TestPipelineRecoversLatentScores(t *testing.T) {
	dims := []string{"food", "service", "ambiance"}
	corpus := gen.GenerateReviews(99, 300, dims)
	e := Extractor{Keywords: DefaultRestaurantKeywords()}

	// Mean extracted score per latent level must be strictly increasing.
	sums := map[string][6]float64{}
	counts := map[string][6]int{}
	for i, text := range corpus.Texts {
		scores, found := e.Scores(text, 5)
		for _, d := range dims {
			if !found[d] {
				continue
			}
			latent := corpus.Truth[i][d]
			s := sums[d]
			c := counts[d]
			s[latent] += float64(scores[d])
			c[latent]++
			sums[d] = s
			counts[d] = c
		}
	}
	for _, d := range dims {
		prev := 0.0
		for lvl := 1; lvl <= 5; lvl++ {
			if counts[d][lvl] == 0 {
				continue
			}
			mean := sums[d][lvl] / float64(counts[d][lvl])
			if mean < prev {
				t.Errorf("%s: extracted mean not monotone at latent %d: %v < %v", d, lvl, mean, prev)
			}
			prev = mean
		}
	}

	// Global rank correlation between latent and extracted scores must be
	// strong for the pipeline to carry the paper's derived dimensions.
	var latents, extracted []float64
	for i, text := range corpus.Texts {
		scores, found := e.Scores(text, 5)
		for _, d := range dims {
			if found[d] {
				latents = append(latents, float64(corpus.Truth[i][d]))
				extracted = append(extracted, float64(scores[d]))
			}
		}
	}
	if rho := stats.SpearmanRho(latents, extracted); rho < 0.7 {
		t.Errorf("Spearman rho = %.3f, want ≥ 0.7", rho)
	}
}

func TestReviewTextMentionsDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := gen.ReviewText(rng, map[string]int{"food": 5, "service": 1})
	e := Extractor{Keywords: DefaultRestaurantKeywords()}
	scores, found := e.Scores(text, 5)
	if !found["food"] || !found["service"] {
		t.Fatalf("generated text must mention both dimensions: %q", text)
	}
	if scores["food"] <= scores["service"] {
		t.Errorf("latent 5 vs 1 should separate: food=%d service=%d (text %q)",
			scores["food"], scores["service"], text)
	}
}

func TestLexiconNonEmpty(t *testing.T) {
	if LexiconSize() < 80 {
		t.Errorf("lexicon suspiciously small: %d", LexiconSize())
	}
	if Valence("excellent") <= 0 || Valence("terrible") >= 0 {
		t.Error("lexicon polarity broken")
	}
	if Valence("zzzz-not-a-word") != 0 {
		t.Error("unknown word must have zero valence")
	}
}

func TestHotelKeywords(t *testing.T) {
	e := Extractor{Keywords: DefaultHotelKeywords()}
	scores, found := e.Scores("The housekeeping was spotless and the bed was comfortable.", 5)
	if !found["cleanliness"] || !found["comfort"] {
		t.Fatalf("found = %v", found)
	}
	if scores["cleanliness"] < 3 || scores["comfort"] < 3 {
		t.Errorf("positive hotel review scored low: %v", scores)
	}
}

// Compound returns the VADER-style compound sentiment of text in [-1, 1]:
// the booster/negation/caps-adjusted valence sum, alpha-normalized.
func (a *Analyzer) Compound(text string) float64 {
	tokens := Tokenize(text)
	return a.compoundOf(tokens, countExclamations(text))
}

// DefaultHotelKeywords are the triggers for the Hotel-Reviews pipeline
// (cleanliness, food, comfort, per §5.1).
func DefaultHotelKeywords() map[string][]string {
	return map[string][]string{
		"cleanliness": {"clean", "cleanliness", "spotless", "dirty", "filthy", "housekeeping"},
		"food":        {"food", "breakfast", "restaurant", "meal", "buffet"},
		"comfort":     {"comfort", "comfortable", "bed", "room", "quiet", "cozy"},
	}
}

// LexiconSize reports how many sentiment-bearing words the built-in lexicon
// carries.
func LexiconSize() int { return len(valence) }

// Valence exposes the lexicon entry for a lowercase word (0 when absent).
func Valence(word string) float64 { return valence[word] }
