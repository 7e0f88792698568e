"""Knowledge retrieval: bigram TF-IDF indexing, metadata query construction,
cosine ranking, and R@k evaluation."""

from artdesc.retriever.index import (
    KnowledgeArticle,
    TfIdfIndex,
    read_articles_dir,
    read_articles_jsonl,
    terms_of,
)
from artdesc.retriever.normalize import default_stopwords, normalize_text, read_word_list
from artdesc.retriever.porter import stem
from artdesc.retriever.query import EMPTY_QUERY, build_query, default_blocklist, load_blocklist
from artdesc.retriever.recall import (
    RetrievalAnnotation,
    RetrievalLabel,
    eval_recall,
    load_annotations,
)

__all__ = [
    "EMPTY_QUERY",
    "KnowledgeArticle",
    "RetrievalAnnotation",
    "RetrievalLabel",
    "TfIdfIndex",
    "build_query",
    "default_blocklist",
    "default_stopwords",
    "eval_recall",
    "load_annotations",
    "load_blocklist",
    "normalize_text",
    "read_articles_dir",
    "read_articles_jsonl",
    "read_word_list",
    "stem",
    "terms_of",
]
