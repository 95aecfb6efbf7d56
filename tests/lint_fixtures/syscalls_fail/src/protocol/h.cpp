namespace nest::protocol {
int f() { return ::open("x", 0); }
long g(int fd, const void* b, unsigned long n) { return ::send(fd, b, n, 0); }
int h() { return ::fork(); }
}
