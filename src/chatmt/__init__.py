"""Chat-translation data toolkit: corpus filtering, chat corpus
construction, target denoising, and diversity-aware ensemble selection."""

__version__ = "0.1.0"

from .corpus import BitextPair, ChatRecord, Dialogue
from .filtering import FilterConfig, FilterReport, filter_corpus, normalize_punctuation
from .chatprep import ContextConfig, build_context, strip_tags, tag_speaker
from .denoise import DenoiseConfig, choose_pairs, denoise_corpus, denoise_tokens
from .ensemble import EnsembleSelection, ScoreSet, avg_self_similarity, select_ensemble, weighted_scores
from .attention import FfnParams, aan_context, standard_attention, talking_heads_attention

__all__ = [
    "BitextPair", "ChatRecord", "Dialogue",
    "FilterConfig", "FilterReport", "filter_corpus", "normalize_punctuation",
    "ContextConfig", "build_context", "strip_tags", "tag_speaker",
    "DenoiseConfig", "choose_pairs", "denoise_corpus", "denoise_tokens",
    "EnsembleSelection", "ScoreSet", "avg_self_similarity", "select_ensemble",
    "weighted_scores",
    "FfnParams", "aan_context", "standard_attention", "talking_heads_attention",
]
