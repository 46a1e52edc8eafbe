"""Continuous user verification from single-lead ECG.

Enrollment builds a per-subject template, amplitude thresholds, and a
linear SVM over DCT features of buffer-averaged heartbeats; verification
streams beats through prescreening, weighted averaging, and the classifier
to maintain a login state. A synthetic generator and a leave-one-out
evaluation harness make the whole pipeline testable end to end.
"""

__version__ = "0.1.0"

from .beatmath import (DctMatrix, cluster_ranks, dct_features, kaiser_weights,
                       pearson, weighted_average)
from .ecgio import (EcgRecord, ManifestEntry, manifest_beats, read_manifest,
                    read_record, write_manifest, write_record)
from .enroll import (enroll_owners, enroll_subject, load_model, owner_features,
                     save_model)
from .errors import (BoundaryError, ContractError, EcgAuthError,
                     EnrollmentQualityError, FormatError, ParseError,
                     UndefinedMetricError, ZeroVarianceError)
from .evaluation import (ConfusionCounts, bar, evaluate, fpr, leave_one_out,
                         timeline_metrics, tpr, write_report_csv, write_sweep_csv)
from .pipeline import (FeatureStream, PipelineParams, SubjectModel, Timeline,
                       VerificationPipeline, collect_features, replay_login,
                       stream_record, write_timeline_csv)
from .qrs import (Beat, QrsDetector, RecordBeats, RPeak, detect_beats,
                  record_beats, segment_beat)
from .svm import LinearSvm, train_svm
from .synth import (SubjectMorphology, default_cohort, generate_record,
                    write_cohort)

__all__ = [name for name in dir() if not name.startswith("_")]
