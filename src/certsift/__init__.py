"""certsift: harvest TLS certificates, extract fraud signals, train classifiers.

The pipeline runs in stages, each usable on its own:

- probe: resolve and dial domains over HTTP and HTTPS, harvesting every
  certificate offered (certsift.probe)
- store: append probe records to NDJSON corpora (certsift.corpus)
- extract: reduce each certificate to fifteen features (certsift.features)
- learn: train and cross-validate fraud classifiers (certsift.ml)
- report: tabulate feature distributions (certsift.report)
- synth: generate labeled synthetic corpora with a provable accuracy
  ceiling for benchmarking the learners (certsift.synth)
"""

from .certs import (
    CertificateSummary,
    DistinguishedName,
    IssuerIndex,
    SignatureAlgorithm,
    Verdict,
    VerificationOutcome,
    dn_equal,
    load_trust_store,
    parse_certificate,
    verify_chain,
)
from .corpus import (
    CorpusIndex,
    CorpusWriter,
    load_corpus,
    write_corpus,
)
from .errors import CertsiftError
from .features import (
    BogusValueList,
    FeatureVector,
    build_corpus_index,
    extract_corpus,
    extract_features,
    jaccard,
    normalize_hostname,
    read_features_csv,
    serial_digit_count,
    write_features_csv,
)
from .probe import DomainRecord, ProbeConfig, ProbeSummary, probe_corpus, probe_domain

__version__ = "0.1.0"

__all__ = [
    "BogusValueList",
    "CertificateSummary",
    "CertsiftError",
    "CorpusIndex",
    "CorpusWriter",
    "DistinguishedName",
    "DomainRecord",
    "FeatureVector",
    "IssuerIndex",
    "ProbeConfig",
    "ProbeSummary",
    "SignatureAlgorithm",
    "Verdict",
    "VerificationOutcome",
    "__version__",
    "build_corpus_index",
    "dn_equal",
    "extract_corpus",
    "extract_features",
    "jaccard",
    "load_corpus",
    "load_trust_store",
    "normalize_hostname",
    "parse_certificate",
    "probe_corpus",
    "probe_domain",
    "read_features_csv",
    "serial_digit_count",
    "verify_chain",
    "write_corpus",
    "write_features_csv",
]
