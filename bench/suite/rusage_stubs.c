/* Child-process accounting for the benchmark suite: OCaml's Unix module
   reaps children without their resource usage, and the per-child CPU time
   and peak RSS are end-to-end metrics.  Also a monotonic clock, so a wall
   time cannot jump with the system clock. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* wait4 pid -> (exit code, user s, system s, max RSS KiB); a signal-killed
   child reports 128 + signal, as a shell would. */
value suite_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                                : 128 + WTERMSIG(status)));
  Store_field(res, 1, caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6));
  Store_field(res, 2, caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value suite_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double(ts.tv_sec + ts.tv_nsec * 1e-9);
}
