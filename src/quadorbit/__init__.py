"""Critical-orbit arithmetic and irreducibility certification for x^2 + 1/c."""

from .orbit import (BitBudgetExceeded, HalfSumStatus, SquareClass, critical_numerators,
                    half_sum_status, is_perfect_square, isqrt_if_square, orbit_point,
                    padic_valuation)
from .factors import FactorPoly, build_pattern, eval_at_orbit, obstruction
from .sieve import (CongruenceTable, ModOrbit, SieveCertificate, jacobi,
                    find_sieve_certificate, regenerate_congruence_table)
from .bounds import initial_divisor_bound, stable_iterate_bound
from .lattice import (DivisorBoundCertificate, EscalationTrace, StabCertificate,
                      check_stab_certificate, check_trace, closest_points,
                      escalation_pass, prove_divisor_bound,
                      verify_no_squares_up_to)
from .classify import (CaseId, CaseVerdict, Effort, FactorCountProfile,
                       VerificationReport, detect_case, factor_count_profile,
                       recheck_report, verify_classification)
from .density import DensityProfile, density_profile, divides_orbit

__version__ = "0.1.0"
