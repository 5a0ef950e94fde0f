"""LOOPRAG pipeline: feedback-based iterative generation."""

from .generation import (BASELINE_TIME_LIMIT, Candidate, DEFAULT_K,
                         DEFAULT_TIME_LIMIT, FeedbackPipeline, ISSUE_CE,
                         ISSUE_ET, ISSUE_IA, ISSUE_IC, ISSUE_RE,
                         LOOPRAG_TIME_LIMIT, PipelineResult, STAGES)

__all__ = [
    "Candidate", "DEFAULT_K", "DEFAULT_TIME_LIMIT", "FeedbackPipeline",
    "ISSUE_CE", "ISSUE_ET", "ISSUE_IA", "ISSUE_IC", "ISSUE_RE",
    "PipelineResult", "STAGES",
    "BASELINE_TIME_LIMIT", "LOOPRAG_TIME_LIMIT",
]
