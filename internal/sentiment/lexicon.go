// Package sentiment implements the review-to-rating extraction pipeline the
// paper uses on Yelp and Hotel reviews (§5.1): for each rating dimension
// (food, service, ambiance, ...), extract every phrase containing the
// dimension keyword with a fixed window of words around it, score each
// phrase with a VADER-style rule-based sentiment analyzer (Hutto & Gilbert
// [34]), and average the phrase sentiments into the dimension's rating
// score on the 1..m scale.
//
// The analyzer is a compact reimplementation of VADER's core rules over a
// built-in valence lexicon: booster words scale intensity, negations flip
// polarity within a window, ALL-CAPS emphasis and exclamation marks add
// intensity, and the compound score is the alpha-normalized sum.
package sentiment

// valence holds the built-in lexicon: word → valence in roughly [-4, 4],
// the scale VADER uses. The vocabulary is sized to the synthetic review
// generator but the analyzer accepts any English text.
var valence = map[string]float64{
	// strongly positive
	"amazing": 3.3, "awesome": 3.1, "excellent": 3.2, "outstanding": 3.4,
	"fantastic": 3.2, "wonderful": 3.0, "superb": 3.1, "perfect": 3.4,
	"incredible": 3.0, "exceptional": 3.2, "delicious": 3.0, "divine": 2.9,
	"flawless": 3.1, "spotless": 2.6, "stellar": 3.0, "magnificent": 3.2,

	// positive
	"good": 1.9, "great": 2.5, "nice": 1.8, "tasty": 2.1, "friendly": 2.0,
	"pleasant": 1.9, "enjoyable": 2.0, "fresh": 1.7, "clean": 1.6,
	"attentive": 1.9, "cozy": 1.7, "charming": 2.0, "lovely": 2.2,
	"helpful": 1.9, "prompt": 1.5, "warm": 1.4, "comfortable": 1.8,
	"generous": 1.8, "fine": 0.8, "decent": 1.0, "solid": 1.2,
	"recommend": 1.6, "love": 3.0, "loved": 2.9, "like": 1.5, "liked": 1.5,
	"enjoy": 1.9, "enjoyed": 1.9, "impressed": 2.2, "happy": 2.1,

	// negative
	"bad": -2.5, "poor": -2.3, "slow": -1.5, "bland": -1.8, "stale": -2.0,
	"dirty": -2.2, "rude": -2.6, "cold": -1.2, "noisy": -1.4, "cramped": -1.5,
	"mediocre": -1.3, "overpriced": -1.9, "disappointing": -2.2,
	"disappointed": -2.2, "unfriendly": -2.1, "greasy": -1.6, "soggy": -1.7,
	"dull": -1.4, "messy": -1.6, "shabby": -1.7, "unhelpful": -1.9,
	"forgettable": -1.2, "lacking": -1.3, "annoying": -1.8, "hate": -2.7,
	"hated": -2.7, "dislike": -1.6, "avoid": -1.8, "problem": -1.4,

	// strongly negative
	"terrible": -3.1, "horrible": -3.2, "awful": -3.1, "disgusting": -3.3,
	"inedible": -3.0, "atrocious": -3.3, "appalling": -3.2, "filthy": -2.9,
	"dreadful": -3.0, "abysmal": -3.2, "worst": -3.1, "unacceptable": -2.7,
	"revolting": -3.2, "vile": -3.1,
}

// boosters scale the valence of the following sentiment word. Positive
// entries intensify, negative entries dampen (VADER's "booster dictionary").
var boosters = map[string]float64{
	"very": 0.293, "really": 0.293, "extremely": 0.293, "absolutely": 0.293,
	"incredibly": 0.293, "remarkably": 0.27, "so": 0.293, "totally": 0.27,
	"utterly": 0.29, "quite": 0.18,
	"slightly": -0.293, "somewhat": -0.293, "barely": -0.293,
	"marginally": -0.27, "kinda": -0.27, "sort_of": -0.27, "a_bit": -0.25,
}

// negations flip and dampen the valence of sentiment words within the
// lookback window (VADER's negation rule with factor −0.74).
var negations = map[string]bool{
	"not": true, "no": true, "never": true, "neither": true, "nor": true,
	"isnt": true, "isn't": true, "wasnt": true, "wasn't": true,
	"arent": true, "aren't": true, "werent": true, "weren't": true,
	"dont": true, "don't": true, "didnt": true, "didn't": true,
	"cant": true, "can't": true, "couldnt": true, "couldn't": true,
	"wont": true, "won't": true, "wouldnt": true, "wouldn't": true,
	"hardly": true, "without": true, "lacks": true, "lacked": true,
}
